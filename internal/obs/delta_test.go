package obs

import (
	"testing"
	"time"
)

func TestDeltaRates(t *testing.T) {
	m := New()
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

	r := Delta(prev, cur, 2*time.Second)
	if r.Waits != 10 {
		t.Fatalf("Waits = %d, want 10", r.Waits)
	}
	if r.WaitsPerSec != 5 {
		t.Fatalf("WaitsPerSec = %v, want 5", r.WaitsPerSec)
	}
	if r.EntersPerSec != 25 {
		t.Fatalf("EntersPerSec = %v, want 25", r.EntersPerSec)
	}
	if r.Selectivity != 0.25 {
		t.Fatalf("Selectivity = %v, want 0.25", r.Selectivity)
	}
	if r.ParksPerSec != 5 {
		t.Fatalf("ParksPerSec = %v, want 5", r.ParksPerSec)
	}
	if r.WaitP50Ns <= 0 {
		t.Fatalf("WaitP50Ns = %v, want > 0", r.WaitP50Ns)
	}
}

// TestDeltaIsWindowed checks the defining property: activity before
// prev does not leak into the window's percentiles or rates.
func TestDeltaIsWindowed(t *testing.T) {
	m := New()
	// Pre-window: plenty of waits.
	for i := 0; i < 100; i++ {
		m.WaitEnd(m.WaitBegin(), 4, 4, 0)
	}
	prev := m.Snapshot()
	cur := m.Snapshot() // empty window
	r := Delta(prev, cur, time.Second)
	if r.Waits != 0 || r.WaitsPerSec != 0 {
		t.Fatalf("empty window reported waits: %+v", r)
	}
	if r.WaitP50Ns != 0 {
		t.Fatalf("empty window WaitP50Ns = %v, want 0", r.WaitP50Ns)
	}
	if r.Selectivity != 0 {
		t.Fatalf("empty window Selectivity = %v, want 0", r.Selectivity)
	}
}

// TestDeltaClampsOnReset: a counter that moved backwards (Metrics reset
// or name rebound between samples) must clamp to zero, not wrap to a
// huge unsigned delta.
func TestDeltaClampsOnReset(t *testing.T) {
	m := New()
	for i := 0; i < 5; i++ {
		m.WaitEnd(m.WaitBegin(), 1, 1, 0)
	}
	prev := m.Snapshot()
	cur := New().Snapshot() // fresh collector under the same name
	r := Delta(prev, cur, time.Second)
	if r.Waits != 0 || r.WaitsPerSec != 0 || r.EntersPerSec != 0 {
		t.Fatalf("reset window not clamped: %+v", r)
	}
}

func TestDeltaBacklogSlope(t *testing.T) {
	prev := Snapshot{ReclaimPending: 100}
	cur := Snapshot{ReclaimPending: 400, ReclaimBytes: 1 << 20}
	r := Delta(prev, cur, 2*time.Second)
	if r.BacklogSlope != 150 {
		t.Fatalf("BacklogSlope = %v, want 150", r.BacklogSlope)
	}
	if r.ReclaimBacklog != 400 || r.ReclaimBacklogBytes != 1<<20 {
		t.Fatalf("backlog gauges = %d/%d, want 400/%d", r.ReclaimBacklog, r.ReclaimBacklogBytes, 1<<20)
	}
	// Draining backlog slopes negative.
	r = Delta(cur, prev, 2*time.Second)
	if r.BacklogSlope != -150 {
		t.Fatalf("draining BacklogSlope = %v, want -150", r.BacklogSlope)
	}
}
