package core

import (
	"context"

	"prcu/internal/obs"
	"prcu/internal/pad"
	"prcu/internal/tsc"
)

// timeNode is the per-reader record of Algorithm 1 (and, replicated per
// value bucket, of Algorithm 3): the value the reader is currently reading
// and the timestamp of its prcu_enter, or tsc.Infinity while quiescent.
// Both fields are padded to their own cache lines: the reader writes them
// on every Enter/Exit while wait-for-readers scans read them, and unrelated
// readers must not false-share.
type timeNode struct {
	value pad.Uint64
	time  pad.Int64
}

// newTimeNodeSeg allocates n quiescent timeNodes; it is the registry
// newSeg hook of the timestamp engines.
func newTimeNodeSeg(n int) []timeNode {
	nodes := make([]timeNode, n)
	for i := range nodes {
		nodes[i].time.Store(tsc.Infinity)
	}
	return nodes
}

// EER implements EER-PRCU (Algorithm 1): wait-for-readers Evaluates the
// predicate for Each Reader and waits — using time-based quiescence
// detection — only for readers it holds for.
//
// Correctness (Proposition 1) transfers as follows: all node accesses are
// sequentially consistent atomics, which subsumes the paper's TSO fences,
// and the clock satisfies the two properties the proof needs, monotonicity
// and cross-thread consistency (see internal/tsc).
type EER struct {
	base[timeNode]
	clock Clock
}

// NewEER returns an EER-PRCU engine capped at maxReaders concurrent
// readers (0 = grow on demand). If clock is nil the monotonic clock is
// used.
func NewEER(maxReaders int, clock Clock) *EER {
	if clock == nil {
		clock = tsc.NewMonotonic()
	}
	e := &EER{clock: clock}
	e.setup(e, maxReaders, newTimeNodeSeg)
	return e
}

// Name implements RCU.
func (e *EER) Name() string { return "EER-PRCU" }

// eerReader is one registered EER reader (one slot of the Nodes array).
type eerReader struct {
	readerGuard
	e    *EER
	node *timeNode
	lane *obs.ReaderLane
	slot int
}

// Register implements RCU.
func (e *EER) Register() (Reader, error) {
	slot, n, err := e.reg.acquire()
	if err != nil {
		return nil, err
	}
	n.time.Store(tsc.Infinity)
	return &eerReader{e: e, node: n, lane: e.lane(slot), slot: slot}, nil
}

// Enter implements Reader. The value store precedes the time store, as in
// Algorithm 1: a waiter that observes the new time is then guaranteed to
// observe the new value (single-writer node, SC atomics).
func (r *eerReader) Enter(v Value) {
	r.check()
	r.node.value.Store(v)
	r.node.time.Store(r.e.clock.Now())
	// Algorithm 1 line 6's TSO fence — ordering the time store before the
	// critical section's reads — is implied by the SC atomic store above.
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader.
func (r *eerReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.node.time.Store(tsc.Infinity)
}

// Do implements Reader.
func (r *eerReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *eerReader) Unregister() {
	r.closing()
	if r.node.time.Load() != tsc.Infinity {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.e.reg.release(r.slot)
	r.node = nil
}

// covered is the blocking test of Algorithms 1 and 3: node n holds a
// critical section that began no later than t0 on a value p holds for.
//
// It is evaluated afresh on every poll (rather than the predicate once, as
// the pseudo code shows), which only relaxes waiting: if the reader
// re-entered on a value p does not hold for, its pre-existing critical
// section has necessarily exited — any covered section it held was entered
// with an earlier value (single writer, no nesting).
func covered(n *timeNode, t0 int64, p Predicate) bool {
	return n.time.Load() <= t0 && p.Holds(n.value.Load())
}

// WaitForReaders implements RCU.
func (e *EER) WaitForReaders(p Predicate) { e.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers (Algorithm 1 lines
// 9–16), bounded by ctx when it is non-nil. The scan is read-only, so
// concurrent waits proceed without synchronizing with each other — the
// property that makes EER-PRCU waits scale with update threads — and a wait
// abandoned on cancellation leaves nothing behind.
//
// Scanning the calling goroutine's own slot is harmless: a correct caller
// is quiescent while waiting, so its own node reads Infinity and is skipped
// immediately. This removes the paper's "for each thread Tj != Ti"
// bookkeeping without changing behavior.
//
// Algorithm 1 line 10's fence orders the updater's prior writes before the
// scan, not before the clock: it is implied by SC ordering of the atomic
// node loads below against the caller's preceding atomic stores. The scan
// is quiescent-first: a node at Infinity, or inside a section on a value p
// does not hold for, is passed on those loads alone — time before value, as
// in covered: Enter stores them in the opposite order, so a value read
// after a section's time is that section's or a later one's — and the
// clock (line 11) is read by awaitSection, only for a node that is neither.
func (e *EER) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &e.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	e.reg.forEachActive(func(n *timeNode, slot int) bool {
		s.scanned++
		return n.time.Load() == tsc.Infinity || !p.Holds(n.value.Load()) || s.awaitSection(e.clock, n, slot, p)
	})
	return s.end()
}

// stalledReaders implements engine: the covered critical sections open
// now, with their value and age.
func (e *EER) stalledReaders(p Predicate) []StalledReader {
	now := e.clock.Now()
	return stalledSlots(e.reg, func(n *timeNode, sr *StalledReader) bool {
		if !covered(n, now, p) {
			return false
		}
		sr.Value, sr.HasValue, sr.OpenFor = n.value.Load(), true, clampDur(now-n.time.Load())
		return true
	})
}
