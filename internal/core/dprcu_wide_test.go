package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// The wide-wait switch of the counter kernel: a general predicate on a
// table of more than one node walks the whole table until one such walk,
// begun after readers started publishing, has completed; from then on it
// drains only the nodes published in the active readers' slots. These
// tests pin each step of that safety argument (DESIGN.md §5) with a
// reader parked in a section, on the paper's 1024-node table.

// wideFunc is a general predicate covering v.
func wideFunc(v Value) Predicate { return Func(func(u Value) bool { return u == v }) }

// readyD returns a D-PRCU engine whose wide waits visit the readers: one
// wide wait with no section open has switched it.
func readyD(t *testing.T) *D {
	t.Helper()
	d := NewD(0)
	d.WaitForReaders(All())
	if m := d.mode.Load(); m != dReady {
		t.Fatalf("mode = %d after a completed wide wait, want %d", m, dReady)
	}
	return d
}

// TestWideWaitFirstWalkCoversUnpublished: a section entered before any
// wide wait published nothing, so the first wide wait must find it by
// walking the table — and leaves the engine switched.
func TestWideWaitFirstWalkCoversUnpublished(t *testing.T) {
	const v = Value(5)
	d := NewD(0)
	release := parkReader(t, d, v)
	waitBlocks(t, d, All(), release)
	if m := d.mode.Load(); m != dReady {
		t.Fatalf("mode = %d after a completed wide wait, want %d", m, dReady)
	}
}

// TestWideWaitSecondWaitBlocksDuringWalk: while the first wide wait is
// still walking (blocked on an unpublished section), readers publish but
// the unpublished section is in no slot, so a second wide wait must walk
// the table too.
func TestWideWaitSecondWaitBlocksDuringWalk(t *testing.T) {
	const v = Value(5)
	d := NewD(0)
	release := parkReader(t, d, v)
	first := make(chan struct{})
	go func() { d.WaitForReaders(All()); close(first) }()
	for deadline := time.Now().Add(10 * time.Second); d.mode.Load() == dOff; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first wide wait never switched publishing on")
		}
	}
	waitBlocks(t, d, wideFunc(v), release)
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("the first wide wait did not return after release")
	}
	if m := d.mode.Load(); m != dReady {
		t.Fatalf("mode = %d after two completed wide waits, want %d", m, dReady)
	}
}

// TestWideWaitCancelledFirstWalkKeepsWalking: a first wide wait cancelled
// while an unpublished section blocks its walk has not covered that
// section, so it must not switch the engine to visiting the readers — the
// section must still block the next wide wait.
func TestWideWaitCancelledFirstWalkKeepsWalking(t *testing.T) {
	const v = Value(5)
	d := NewD(0)
	release := parkReader(t, d, v) // enters before the switch: publishes nothing
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := d.WaitForReadersCtx(ctx, All()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first wide wait returned %v with the section open, want %v", err, context.DeadlineExceeded)
	}
	if m := d.mode.Load(); m == dReady {
		t.Fatalf("mode = %d after a cancelled first walk, want short of %d", m, dReady)
	}
	waitBlocks(t, d, All(), release)
}

// TestWideWaitLateEntrantPublishes: a section entered while the first
// walk is blocked, on a node the walk has already passed, is not covered
// by that walk; it must publish its node, so that once the walk completes
// and switches the engine, a wide wait that visits the readers blocks on it.
func TestWideWaitLateEntrantPublishes(t *testing.T) {
	d := NewD(0)
	tbl := d.tbl.Load()
	var blocker, late Value
	for tbl.index(blocker) < uint64(len(tbl.nodes))/2 {
		blocker++
	}
	for tbl.index(late) >= tbl.index(blocker) {
		late++
	}
	releaseBlocker := parkReader(t, d, blocker)
	first := make(chan struct{})
	go func() { d.WaitForReaders(All()); close(first) }()
	// The walk drains nodes in index order and toggles the blocker's gate
	// once it has reached the blocker's node and gone to the gate protocol:
	// by then it has passed late's node.
	gate := &tbl.nodes[tbl.index(blocker)].gate
	for deadline := time.Now().Add(10 * time.Second); gate.Load() == 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first wide walk never reached the blocker's node")
		}
	}
	releaseLate := parkReader(t, d, late)
	releaseBlocker()
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("the first wide wait did not return after release")
	}
	if m := d.mode.Load(); m != dReady {
		t.Fatalf("mode = %d after a completed wide wait, want %d", m, dReady)
	}
	waitBlocks(t, d, All(), releaseLate)
}

// TestWideWaitVisitsPublishedReader: after the switch a section publishes
// its node, and a wide wait blocks on it.
func TestWideWaitVisitsPublishedReader(t *testing.T) {
	const v = Value(5)
	d := readyD(t)
	release := parkReader(t, d, v)
	waitBlocks(t, d, wideFunc(v), release)
}

// TestWideWaitSkippedStoreStillCovers: Enter skips the slot store when
// the slot already holds its node — on re-entering its last-published
// node, and on a recycled slot whose previous owner left that node there
// — and the wide wait must still block on the section.
func TestWideWaitSkippedStoreStillCovers(t *testing.T) {
	const v = Value(5)
	t.Run("reentry", func(t *testing.T) {
		d := NewD(0)
		rd := mustRegister(t, d)
		rd.Enter(v) // before the switch: published nothing
		rd.Exit(v)
		d.WaitForReaders(All())
		rd.Enter(v) // publishes v's node
		rd.Exit(v)
		rd.Enter(v) // skips the store
		waitBlocks(t, d, All(), func() { rd.Exit(v) })
		rd.Unregister()
	})
	t.Run("recycled", func(t *testing.T) {
		d := readyD(t)
		prev := mustRegister(t, d)
		prev.Enter(v) // publishes v's node, and leaves it in the slot
		prev.Exit(v)
		prev.Unregister()
		rd := mustRegister(t, d)
		if got, want := rd.(*dReader).slot, 0; got != want {
			t.Fatalf("recycled reader in slot %d, want %d", got, want)
		}
		rd.Enter(v) // skips the store
		waitBlocks(t, d, All(), func() { rd.Exit(v) })
		rd.Unregister()
	})
}

// TestWideWaitCoversOldGeneration: a section counted in the generation a
// Resize is draining published that generation's node; a wide wait must
// drain it, not the node of the same index in the new table. Reports name
// a node by its index in its own generation while that is current or
// being drained.
func TestWideWaitCoversOldGeneration(t *testing.T) {
	const v = Value(5)
	d := readyD(t)
	release := parkReader(t, d, v)
	resized := make(chan struct{})
	go func() { d.Resize(2 * DefaultCounterTableSize); close(resized) }()
	for deadline := time.Now().Add(10 * time.Second); d.old.Load() == nil; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("Resize never installed the new generation")
		}
	}
	old, cur := d.old.Load(), d.tbl.Load()
	if got, want := d.nodeIndex(&old.nodes[old.index(v)]), int(old.index(v)); got != want {
		t.Errorf("old generation's node named %d, want %d", got, want)
	}
	if got, want := d.nodeIndex(&cur.nodes[cur.index(v)]), int(cur.index(v)); got != want {
		t.Errorf("current generation's node named %d, want %d", got, want)
	}
	waitBlocks(t, d, All(), release)
	select {
	case <-resized:
	case <-time.After(10 * time.Second):
		t.Fatal("Resize did not return after release")
	}
	if got := d.nodeIndex(&old.nodes[0]); got != -1 {
		t.Errorf("retired generation's node named %d, want -1", got)
	}
}

// TestWideWaitBookkeeping pins what a wide wait that visits the readers
// leaves behind: one scanned per slot visited, the blocked node's index
// blamed, and a stall report naming that index.
func TestWideWaitBookkeeping(t *testing.T) {
	const v = Value(5)
	d := readyD(t)
	m := obs.New()
	m.EnableFlightRecorder(16)
	d.SetMetrics(m)
	clk := tsc.NewManual(0)
	var col stallCollector
	d.SetStallConfig(StallConfig{Timeout: 1_000, RateLimit: time.Hour, Clock: clk, OnStall: col.add})
	idle := mustRegister(t, d) // slot 0: publishes v+1's node, then quiescent
	idle.Enter(v + 1)
	idle.Exit(v + 1)
	release := parkReader(t, d, v) // slot 1
	waited := make(chan struct{})
	go func() { d.WaitForReaders(All()); close(waited) }()
	awaitReports(t, &col, clk, 2_000, 1)
	release()
	<-waited
	idle.Unregister()

	idx := int(d.tbl.Load().index(v))
	if rep := col.last(); len(rep.Readers) != 1 || rep.Readers[0].Slot != idx || rep.Readers[0].HasValue {
		t.Errorf("stall report readers = %+v, want node %d with no value", rep.Readers, idx)
	}
	s := d.Stats()
	if s.ReadersScanned != 2 || s.ReadersWaited != 1 {
		t.Errorf("scanned/waited = %d/%d, want 2/1 (the two slots, the one blocked node)", s.ReadersScanned, s.ReadersWaited)
	}
	var blamed []int
	for _, sp := range m.FlightSnapshot() {
		for _, b := range sp.Blame {
			blamed = append(blamed, b.Slot)
		}
	}
	if len(blamed) != 1 || blamed[0] != idx {
		t.Errorf("blamed %v, want node %d", blamed, idx)
	}
}
