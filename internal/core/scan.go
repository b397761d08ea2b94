package core

import (
	"context"
	"time"

	"prcu/internal/obs"
	"prcu/internal/spin"
)

// This file is the one wait path shared by every engine. The nine flavors
// run on four kernels — timestamp (deer.go), counter (dprcu.go), tree
// (treercu.go) and epoch (packed.go) — whose waits differ only in their
// pre-scan step (epoch flip, tree seeding, node selection) and in the
// test that says "this slot still blocks me"; everything else a
// wait does — the back-off ladder, cancellation, the stall watchdog, blame
// sampling, the scanned/waited/parked counters and the WaitBegin/WaitEnd
// bracket — lives in waitSession, once.
//
// Each engine's WaitForReadersCtx is its whole algorithm text — session
// begin, pre-scan step, blocking test, end — and WaitForReaders is that
// with a nil Context. (The two entry points are one-liners on the engine
// rather than methods of the hooks embed, which would have to dispatch
// back to the engine through an interface: that measured 7.5 ns per
// wait.)
//
// Cost model: a session is a stack value, so a wait allocates nothing
// whatever its entry point. Cancellation and the watchdog are checked only
// on back-off steps that have crossed from spinning into scheduler yields
// (one predictable branch per step, none per slot), so a wait that finds
// no covered reader reaches none of them.

// hooks is the non-generic part of base: the observability and
// resilience hook points, and the engine's name.
type hooks struct {
	metered
	resilient
	name string
}

// Name implements RCU.
func (h *hooks) Name() string { return h.name }

// base is embedded by every engine: hooks plus the reader registry, whose
// per-slot state type S is the engine's own.
type base[S any] struct {
	hooks
	reg *registry[S]
}

// setup names the embedding engine and allocates its registry of stride
// S per slot.
func (b *base[S]) setup(name string, stride int, newSeg func(n int) []S) {
	b.name = name
	b.reg = newRegistry(stride, newSeg)
}

// LiveReaders implements ReaderCounter.
func (b *base[S]) LiveReaders() int { return b.reg.liveReaders() }

// SlotCapacity implements SlotCapacitor.
func (b *base[S]) SlotCapacity() int { return b.reg.capacity() }

// waitSession is one wait's state, a stack value in the engine's
// WaitForReadersCtx. One that was never begun (only e set) is a usable
// session with no metrics, no cancellation and no watchdog; D-PRCU's
// Resize drains through one.
type waitSession struct {
	e    *hooks
	m    *obs.Metrics
	span obs.WaitSpan
	w    spin.Waiter
	// bs is the blame-clock reading at the start of the latest await.
	bs int64
	// One wait's counts. Slots are indexed by int32 (registry.limit) and a
	// wait drains each counter node at most twice, so 32 bits hold them
	// and keep the session, zeroed on every wait, small.
	scanned, waited, parked uint32
	drains                  [3]uint32 // indexed by obs.DrainOutcome
	// The control block: all zero for a plain wait with the watchdog
	// unarmed.
	ctx     context.Context
	done    <-chan struct{}
	st      *stallState
	pred    Predicate
	startNs int64 // stall clock at wait start
	err     error
	// t0 is a timestamp engine's tick of its clock for this wait, valid
	// once timed: awaitSection takes it when a scan first needs it, and
	// with it, when st is set, the stall clock (blockedNs), which bounds
	// from below the age of every section the wait blocks on.
	t0 int64
	// What the latest await blocked on, for the stall report: its slot
	// (a counter index for the counter kernel), recorded by await; the
	// node when awaitSection made it, which gives the section's value;
	// and the value a counter drain covers. hasVal says whether the
	// report has a value to give.
	slot      int32
	hasVal    bool
	armed     bool // caches "done or st is set" for step
	timed     bool
	node      *timeNode
	blockedNs int64
	val       Value
}

// begin opens the session. A plain wait with no metrics attached and the
// watchdog unarmed — the case the paper's wait latencies are made of — has
// nothing to open, and the test for it is kept this small on purpose: the
// wait path runs cold in real workloads, and folding beginSlow back in
// here measured +13 ns on a 60 ns D-PRCU wait (tree_write_heavy).
func (s *waitSession) begin(ctx context.Context, p *Predicate) error {
	if ctx != nil || s.e.met != nil || s.e.stallCfg.Load() != nil {
		return s.beginSlow(ctx, p)
	}
	return nil
}

// beginSlow captures the metrics and watchdog in force, fails fast on an
// already-expired ctx (before anything is recorded), and opens the metrics
// span. ctx travels to the span whether or not it can be cancelled, so a
// grace-period ID it carries always reaches the recorder.
func (s *waitSession) beginSlow(ctx context.Context, p *Predicate) error {
	s.m, s.st = s.e.met, s.e.stallCfg.Load()
	if ctx != nil {
		if s.done = ctx.Done(); s.done != nil {
			select {
			case <-s.done:
				return ctx.Err()
			default:
			}
			s.ctx, s.armed = ctx, true
		}
	}
	if s.st != nil {
		s.pred, s.armed = *p, true
		s.startNs = s.st.cfg.Clock.Now()
	}
	if s.m != nil {
		s.span = s.m.WaitBeginCtx(ctx)
	}
	return nil
}

// await blocks while blocked() holds, charging the delay to slot; it
// returns false once the wait is cancelled. Engines test a slot inline
// first and call await only for one that blocks, so a quiescent slot costs
// a load and a branch and none of this.
func (s *waitSession) await(slot int, blocked func() bool) bool {
	s.waited++
	s.slot = int32(slot)
	s.bs = s.m.BlameStart(&s.span)
	s.rearm()
	for blocked() && s.step() {
	}
	s.m.BlameSample(&s.span, slot, s.bs)
	if s.w.Yielded() {
		s.parked++
	}
	return s.err == nil
}

// rearm restarts the back-off ladder from its first spin: await calls it
// as a slot starts to block, and a blocking test made of several phases
// (the node drain) calls it as each phase starts, so no phase inherits
// the yields its predecessor had backed off to. Whether the await parked
// is read off the last phase.
func (s *waitSession) rearm() { s.w.Reset() }

// also charges the await just finished to slot as well: for waits that
// poll one condition on behalf of several readers (Tree RCU's root word).
func (s *waitSession) also(slot int) {
	s.waited++
	s.m.BlameSample(&s.span, slot, s.bs)
}

// step takes one back-off step, then — only once the waiter is yielding to
// the scheduler, and only if there is anything to check — polls
// cancellation and the watchdog. It returns false when cancelled.
func (s *waitSession) step() bool {
	s.w.Wait()
	if !s.armed || !s.w.Yielded() {
		return true
	}
	if s.done != nil {
		select {
		case <-s.done:
			s.err = s.ctx.Err()
			return false
		default:
		}
	}
	if s.st != nil {
		s.checkStall()
	}
	return true
}

// checkStall fires the watchdog when this wait has exceeded the stall
// timeout and the engine-wide rate limiter admits a report.
func (s *waitSession) checkStall() {
	st := s.st
	now := st.cfg.Clock.Now()
	if now-s.startNs < st.timeoutNs {
		return
	}
	last := st.last.Load()
	if now-last < st.windowNs || !st.last.CompareAndSwap(last, now) {
		return // rate-limited, or a concurrent stalled waiter won the window
	}
	rep := StallReport{
		Engine:    s.e.name,
		Flavor:    s.e.FlavorToken(),
		Predicate: s.pred.String(),
		Elapsed:   time.Duration(now - s.startNs),
		Readers:   []StalledReader{s.blocker(now)},
	}
	s.m.StallDetected(s.span)
	if st.cfg.OnStall != nil {
		st.cfg.OnStall(rep)
	}
}

// end closes the session, recording the counters, and returns the
// cancellation error if there was one — in which case the grace period did
// NOT complete.
func (s *waitSession) end() error {
	if s.m != nil {
		s.record()
	}
	return s.err
}

// record is end's metered half, kept out of line so end inlines.
func (s *waitSession) record() {
	s.m.DrainCounts(uint64(s.drains[obs.DrainOptimistic]), uint64(s.drains[obs.DrainGate]), uint64(s.drains[obs.DrainPiggyback]))
	s.m.WaitEnd(s.span, uint64(s.scanned), uint64(s.waited), uint64(s.parked))
}

// blocker is what this wait is blocked on at stall-clock reading now,
// read off what the latest await recorded: no registry re-scan, and so no
// second copy of any engine's blocking test. A timestamp section's age is
// measured on the stall clock from the wait's tick, which the section
// preceded: it has been open at least that long. Its posted time is in the
// engine clock's units (epochs, by default), not the stall clock's.
func (s *waitSession) blocker(now int64) StalledReader {
	sr := StalledReader{Slot: int(s.slot), Value: s.val, HasValue: s.hasVal}
	if n := s.node; n != nil {
		sr.Value = n.value.Load()
		sr.OpenFor = clampDur(now - s.blockedNs)
	}
	return sr
}
