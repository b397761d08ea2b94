package core

import (
	"context"

	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// TimeRCU is the paper's Time RCU baseline (§6): time-based quiescence
// detection over all readers — i.e. EER-PRCU without the predicate
// evaluation. It exists to tease apart how much of PRCU's gain comes from
// predicates versus from timestamp-based quiescence detection, and it is
// the strongest plain-RCU baseline on workloads with updates.
type TimeRCU struct {
	base[timeNode] // value field unused; layout shared with EER
	clock          Clock
}

// NewTimeRCU returns a Time RCU engine capped at maxReaders concurrent
// readers (0 = grow on demand). If clock is nil the monotonic clock is
// used.
func NewTimeRCU(maxReaders int, clock Clock) *TimeRCU {
	if clock == nil {
		clock = tsc.NewMonotonic()
	}
	t := &TimeRCU{clock: clock}
	t.setup(t, maxReaders, newTimeNodeSeg)
	return t
}

// Name implements RCU.
func (t *TimeRCU) Name() string { return "Time RCU" }

type timeReader struct {
	readerGuard
	t    *TimeRCU
	node *timeNode
	lane *obs.ReaderLane
	slot int
}

// Register implements RCU.
func (t *TimeRCU) Register() (Reader, error) {
	slot, n, err := t.reg.acquire()
	if err != nil {
		return nil, err
	}
	n.time.Store(tsc.Infinity)
	return &timeReader{t: t, node: n, lane: t.lane(slot), slot: slot}, nil
}

// Enter implements Reader. The value is ignored: Time RCU is a plain RCU.
func (r *timeReader) Enter(v Value) {
	r.check()
	r.node.time.Store(r.t.clock.Now())
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader.
func (r *timeReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.node.time.Store(tsc.Infinity)
}

// Do implements Reader.
func (r *timeReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *timeReader) Unregister() {
	r.closing()
	if r.node.time.Load() != tsc.Infinity {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.t.reg.release(r.slot)
	r.node = nil
}

// WaitForReaders implements RCU.
func (t *TimeRCU) WaitForReaders(p Predicate) { t.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers, bounded by ctx when
// it is non-nil. The predicate is ignored (it is kept for stall
// diagnostics): every reader whose section began no later than the wait
// is waited for, as with standard RCU — the clock being read only once a
// reader is found inside a section (awaitSection). The scan is read-only,
// so an abandoned wait leaves nothing behind.
func (t *TimeRCU) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &t.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	t.reg.forEachActive(func(n *timeNode, slot int) bool {
		s.scanned++
		return n.time.Load() == tsc.Infinity || s.awaitSection(t.clock, n, slot, All())
	})
	return s.end()
}

// stalledReaders implements engine: every critical section open now, with
// its age (no value is tracked).
func (t *TimeRCU) stalledReaders(Predicate) []StalledReader {
	now := t.clock.Now()
	return stalledSlots(t.reg, func(n *timeNode, sr *StalledReader) bool {
		ts := n.time.Load()
		sr.OpenFor = clampDur(now - ts)
		return ts <= now
	})
}
