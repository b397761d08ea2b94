package obshttp

import (
	"testing"
	"time"

	"prcu/internal/obs"
)

func TestDeltaRates(t *testing.T) {
	m := obs.New()
	prev := m.Snapshot()

	// 10 waits, each scanning 8 readers and waiting on 2.
	for i := 0; i < 10; i++ {
		sp := m.WaitBegin()
		m.WaitEnd(sp, 8, 2, 1)
	}
	m.EnsureReaders(1)
	l := m.Lane(0)
	for i := 0; i < 50; i++ {
		l.OnEnter()
		l.OnExit()
	}
	cur := m.Snapshot()

	h := delta(prev, cur, 2*time.Second)
	if h.WindowSeconds != 2 {
		t.Fatalf("WindowSeconds = %v, want 2", h.WindowSeconds)
	}
	if h.WaitsPerSec != 5 {
		t.Fatalf("WaitsPerSec = %v, want 5", h.WaitsPerSec)
	}
	if h.EntersPerSec != 25 {
		t.Fatalf("EntersPerSec = %v, want 25", h.EntersPerSec)
	}
	if h.Selectivity != 0.25 {
		t.Fatalf("Selectivity = %v, want 0.25", h.Selectivity)
	}
	if h.WaitP99Ns <= 0 {
		t.Fatalf("WaitP99Ns = %v, want > 0", h.WaitP99Ns)
	}
}

// TestDeltaIsWindowed checks the defining property: activity before
// prev does not leak into the window's percentiles or rates.
func TestDeltaIsWindowed(t *testing.T) {
	m := obs.New()
	// Pre-window: plenty of waits.
	for i := 0; i < 100; i++ {
		m.WaitEnd(m.WaitBegin(), 4, 4, 0)
	}
	prev := m.Snapshot()
	cur := m.Snapshot() // empty window
	h := delta(prev, cur, time.Second)
	if h.WaitsPerSec != 0 {
		t.Fatalf("empty window reported waits: %+v", h)
	}
	if h.WaitP99Ns != 0 {
		t.Fatalf("empty window WaitP99Ns = %v, want 0", h.WaitP99Ns)
	}
	if h.Selectivity != 0 {
		t.Fatalf("empty window Selectivity = %v, want 0", h.Selectivity)
	}
}

// TestDeltaClampsOnReset: a counter that moved backwards (Metrics reset
// or name rebound between samples) must clamp to zero, not wrap to a
// huge unsigned delta.
func TestDeltaClampsOnReset(t *testing.T) {
	m := obs.New()
	for i := 0; i < 5; i++ {
		m.WaitEnd(m.WaitBegin(), 1, 1, 0)
	}
	prev := m.Snapshot()
	cur := obs.New().Snapshot() // fresh collector under the same name
	h := delta(prev, cur, time.Second)
	if h.WaitsPerSec != 0 || h.EntersPerSec != 0 || h.Stalls != 0 || h.Overloads != 0 {
		t.Fatalf("reset window not clamped: %+v", h)
	}
}

func TestDeltaBacklogSlope(t *testing.T) {
	prev := obs.Snapshot{ReclaimPending: 100}
	cur := obs.Snapshot{ReclaimPending: 400, ReclaimOldestNs: 7}
	h := delta(prev, cur, 2*time.Second)
	if h.BacklogSlope != 150 {
		t.Fatalf("BacklogSlope = %v, want 150", h.BacklogSlope)
	}
	if h.Backlog != 400 || h.OldestAgeNs != 7 {
		t.Fatalf("backlog gauges = %d/%d, want 400/7", h.Backlog, h.OldestAgeNs)
	}
	// Draining backlog slopes negative.
	h = delta(cur, prev, 2*time.Second)
	if h.BacklogSlope != -150 {
		t.Fatalf("draining BacklogSlope = %v, want -150", h.BacklogSlope)
	}
}
