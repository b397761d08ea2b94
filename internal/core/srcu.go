package core

import (
	"context"

	"prcu/internal/obs"
)

// SRCU implements McKenney's Sleepable RCU (§7 related work), the origin
// of D-PRCU's two-counter waiting protocol. SRCU restricts waiting *by
// subsystem*: each SRCU instance is an isolated domain, so a wait in one
// instance never waits for readers of another — whereas PRCU subdivides
// waiting *within* one data structure by value. Structurally, SRCU is
// D-PRCU with a single counter node and no predicate: readers flip-flop
// between two counters selected by a gate bit, and a wait drains both
// phases under a per-instance lock.
//
// It is included for completeness of the related-work comparison; in the
// harness it behaves like a plain RCU whose readers pay one atomic RMW.
type SRCU struct {
	// SRCU readers carry no scanned per-slot state — the shared counter
	// node is the state — but slots still bound and account for the reader
	// population.
	base[struct{}]
	node dNode
}

// NewSRCU returns an SRCU instance ("subsystem") capped at maxReaders
// concurrent readers (0 = grow on demand).
func NewSRCU(maxReaders int) *SRCU {
	s := &SRCU{}
	s.setup(s, maxReaders, zeroSeg[struct{}])
	return s
}

// Name implements RCU.
func (s *SRCU) Name() string { return "SRCU" }

type srcuReader struct {
	readerGuard
	s    *SRCU
	lane *obs.ReaderLane
	slot int
	b    uint64
	inCS bool
}

// Register implements RCU.
func (s *SRCU) Register() (Reader, error) {
	slot, _, err := s.reg.acquire()
	if err != nil {
		return nil, err
	}
	return &srcuReader{s: s, lane: s.lane(slot), slot: slot}, nil
}

// Enter implements Reader (srcu_read_lock). The value is ignored: the
// subsystem is the granularity, not the value.
func (r *srcuReader) Enter(v Value) {
	r.check()
	if r.inCS {
		panic("prcu: nested read-side critical sections are not supported")
	}
	n := &r.s.node
	b := n.gate.Load() & 1
	n.readers[b].Add(1)
	r.b, r.inCS = b, true
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader (srcu_read_unlock).
func (r *srcuReader) Exit(v Value) {
	r.check()
	if !r.inCS {
		panic("prcu: Exit without matching Enter")
	}
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.s.node.readers[r.b].Add(-1)
	r.inCS = false
}

// Do implements Reader.
func (r *srcuReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *srcuReader) Unregister() {
	r.closing()
	if r.inCS {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.s.reg.release(r.slot)
	r.s = nil
}

// WaitForReaders implements RCU.
func (s *SRCU) WaitForReaders(p Predicate) { s.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers (synchronize_srcu),
// bounded by ctx when it is non-nil. The predicate is ignored; the whole
// subsystem is D-PRCU's drainNode applied to the one counter node, so each
// wait scans one node, records one drain outcome and blames slot 0 — and,
// as with D-PRCU, aborting mid-gate releases the lock without advancing
// the drains counter, leaving the protocol restartable.
func (s *SRCU) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	ws := waitSession{e: &s.hooks}
	if err := ws.begin(ctx, &p); err != nil {
		return err
	}
	drainNode(&ws, &s.node, 0, optimisticBudget)
	return ws.end()
}

// stalledReaders implements engine: SRCU has a single counter node
// (Slot 0), reported when either phase counter is non-zero.
func (s *SRCU) stalledReaders(Predicate) []StalledReader {
	n := &s.node
	if n.readers[0].Load() != 0 || n.readers[1].Load() != 0 {
		return []StalledReader{{Slot: 0}}
	}
	return nil
}

// Compile-time interface checks for every engine in the package.
var (
	_ RCU = (*EER)(nil)
	_ RCU = (*D)(nil)
	_ RCU = (*DEER)(nil)
	_ RCU = (*TimeRCU)(nil)
	_ RCU = (*TreeRCU)(nil)
	_ RCU = (*URCU)(nil)
	_ RCU = (*DistRCU)(nil)
	_ RCU = (*SRCU)(nil)
	_ RCU = (*Simulated)(nil)
	_ RCU = (*Nop)(nil)
)
