// Package chaos wraps an engine with seeded, deterministic fault
// injection for resilience testing: scheduler jitter around Enter,
// delayed and stalled Exits that hold critical sections open past a
// configured stall timeout, and jitter ahead of grace-period waits.
//
// The wrapper perturbs only *timing* — every fault is a delay or a
// yield inserted around the inner engine's own operations, never a
// dropped or reordered operation — so the PRCU safety property must
// hold under any chaos schedule. The torture tests exploit that: they
// run the standard safety harness over chaos-wrapped engines and
// assert no grace period ever returns early, while separately
// asserting the injected stalls actually trip the stall watchdog and
// deadline-bounded waits time out cleanly.
//
// Fault decisions come from a splitmix64 stream per reader (seeded
// from Config.Seed and the reader's registration index) and a shared
// sequence for wait-side jitter, so a fixed seed yields a fixed fault
// pattern per reader regardless of scheduling.
package chaos

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"prcu/internal/core"
	"prcu/internal/obs"
)

// yield hands the processor to another goroutine — the minimal
// perturbation, essential on GOMAXPROCS=1 hosts where a sleep would
// stall the whole test.
func yield() { runtime.Gosched() }

// sleep holds for d, degrading to a yield when no duration is set.
func sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	time.Sleep(d)
}

// Config selects the faults to inject. Probabilities are in [0, 1];
// zero disables that fault class. The zero Config injects nothing.
type Config struct {
	// Seed fixes the fault pattern; the same seed and reader
	// registration order reproduce the same per-reader decisions.
	Seed uint64

	// EnterJitter is the probability that an Enter yields the
	// scheduler before entering, widening the race window between
	// readers and concurrent waiter snapshots.
	EnterJitter float64

	// ExitDelay is the probability that an Exit holds the critical
	// section open for ExitDelayDur before the inner Exit runs —
	// the "slow reader" a grace period must still wait out.
	ExitDelay    float64
	ExitDelayDur time.Duration

	// Stall is the probability that an Exit holds the critical
	// section open for StallDur — sized by the caller to exceed the
	// engine's StallConfig.Timeout, so the watchdog must fire.
	Stall    float64
	StallDur time.Duration

	// WaitJitter is the probability that a WaitForReaders(Ctx) call
	// yields before starting, perturbing waiter/reader interleavings.
	WaitJitter float64

	// WaitHold is the probability that a WaitForReaders(Ctx) call is
	// held for WaitHoldDur before the inner wait starts — the "slow
	// grace period" fault. Deferred-reclamation layers sit on top of
	// exactly this failure mode: retirements keep arriving while grace
	// periods crawl, so the backlog grows and the watermark machinery
	// must engage. A held WaitForReadersCtx honors ctx during the hold,
	// returning its error without starting the inner wait (the grace
	// period then never completed, which is the truthful outcome).
	WaitHold    float64
	WaitHoldDur time.Duration

	// OnlyReader, when non-zero, restricts the reader-side fault
	// classes (EnterJitter, ExitDelay, Stall) to the single reader with
	// that 1-based registration index; every other reader runs clean.
	// Combined with probability 1.0 this injects a *deterministic*
	// misbehaving reader — the blame demo uses it to plant one known
	// slow reader and check the flight recorder convicts exactly that
	// slot. Zero (the default) faults all readers.
	OnlyReader uint64
}

// Counts reports how many faults of each class an Engine injected.
type Counts struct {
	EnterJitters uint64
	ExitDelays   uint64
	Stalls       uint64
	WaitJitters  uint64
	WaitHolds    uint64
}

// params is a compiled fault mix: Config's probabilities turned into
// comparison thresholds.
type params struct {
	enterThr uint64
	delayThr uint64
	stallThr uint64
	waitThr  uint64
	holdThr  uint64
	delayDur time.Duration
	stallDur time.Duration
	holdDur  time.Duration
	onlyIdx  uint64 // 0 = fault all readers
}

func compile(cfg Config) *params {
	return &params{
		enterThr: threshold(cfg.EnterJitter),
		delayThr: threshold(cfg.ExitDelay),
		stallThr: threshold(cfg.Stall),
		waitThr:  threshold(cfg.WaitJitter),
		holdThr:  threshold(cfg.WaitHold),
		delayDur: cfg.ExitDelayDur,
		stallDur: cfg.StallDur,
		holdDur:  cfg.WaitHoldDur,
		onlyIdx:  cfg.OnlyReader,
	}
}

// Engine is a fault-injecting core.RCU wrapper; construct with Wrap.
type Engine struct {
	inner core.RCU

	seed       uint64
	par        *params
	readers    atomic.Uint64 // registration index stream
	waitSeq    atomic.Uint64 // wait-side decision stream
	holdSeq    atomic.Uint64 // wait-hold decision stream
	nJitter    atomic.Uint64
	nDelay     atomic.Uint64
	nStall     atomic.Uint64
	nWaitShake atomic.Uint64
	nWaitHold  atomic.Uint64
}

// Wrap returns inner behind the fault injector configured by cfg.
func Wrap(inner core.RCU, cfg Config) *Engine {
	e := &Engine{
		inner: inner,
		seed:  splitmix64(cfg.Seed ^ 0x9e3779b97f4a7c15),
		par:   compile(cfg),
	}
	return e
}

// threshold converts a probability to a uint64 comparison bound.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(math.MaxUint64))
}

// splitmix64 is the SplitMix64 output function (Steele et al.) — the
// standard seeding/stream generator, chosen for statelessness and
// determinism rather than quality at scale.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a per-reader SplitMix64 stream. Readers are single-goroutine
// by the Reader contract, so the state needs no synchronization.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(r.state)
}

// Name implements core.RCU.
func (e *Engine) Name() string { return "chaos(" + e.inner.Name() + ")" }

// Stats implements core.RCU.
func (e *Engine) Stats() obs.Snapshot { return e.inner.Stats() }

// Counts returns the faults injected so far.
func (e *Engine) Counts() Counts {
	return Counts{
		EnterJitters: e.nJitter.Load(),
		ExitDelays:   e.nDelay.Load(),
		Stalls:       e.nStall.Load(),
		WaitJitters:  e.nWaitShake.Load(),
		WaitHolds:    e.nWaitHold.Load(),
	}
}

// SetStallConfig arms the inner engine's stall watchdog, when it has
// one (every internal/core engine does).
func (e *Engine) SetStallConfig(cfg core.StallConfig) {
	if sc, ok := e.inner.(core.StallCarrier); ok {
		sc.SetStallConfig(cfg)
	}
}

// Register implements core.RCU, wrapping the inner reader with the
// fault injector. Each reader gets its own decision stream keyed by
// its registration index.
func (e *Engine) Register() (core.Reader, error) {
	rd, err := e.inner.Register()
	if err != nil {
		return nil, err
	}
	idx := e.readers.Add(1)
	return &reader{
		e:   e,
		rd:  rd,
		idx: idx,
		r:   rng{state: splitmix64(e.seed ^ idx*0xbf58476d1ce4e5b9)},
	}, nil
}

// waitShake maybe-yields ahead of a grace-period wait. The decision
// stream is keyed by a shared atomic sequence: deterministic in the
// count of waits issued, independent of which goroutine issues them.
func (e *Engine) waitShake(p *params) {
	if p.waitThr == 0 {
		return
	}
	if splitmix64(e.seed^e.waitSeq.Add(1)*0x94d049bb133111eb) < p.waitThr {
		e.nWaitShake.Add(1)
		yield()
	}
}

// holdSpan decides whether this wait is held, from its own shared
// decision stream (deterministic in the count of waits issued), and
// returns the hold duration (which may be zero — degrades to a yield).
func (e *Engine) holdSpan(p *params) (time.Duration, bool) {
	if p.holdThr == 0 {
		return 0, false
	}
	if splitmix64(e.seed^e.holdSeq.Add(1)*0xbf58476d1ce4e5b9) >= p.holdThr {
		return 0, false
	}
	e.nWaitHold.Add(1)
	return p.holdDur, true
}

// WaitForReaders implements core.RCU.
func (e *Engine) WaitForReaders(p core.Predicate) {
	par := e.par
	e.waitShake(par)
	if d, held := e.holdSpan(par); held {
		sleep(d)
	}
	e.inner.WaitForReaders(p)
}

// WaitForReadersCtx implements core.RCU.
func (e *Engine) WaitForReadersCtx(ctx context.Context, p core.Predicate) error {
	par := e.par
	e.waitShake(par)
	if d, held := e.holdSpan(par); held {
		// Honor ctx during the hold: a deadline that lands mid-hold means
		// the grace period never completed, which is the truthful result.
		if d <= 0 {
			yield()
		} else {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return e.inner.WaitForReadersCtx(ctx, p)
}

var _ core.RCU = (*Engine)(nil)

// reader injects faults around one inner reader. idx is the 1-based
// registration index Config.OnlyReader selects by.
type reader struct {
	e   *Engine
	rd  core.Reader
	idx uint64
	r   rng
}

// faultable reports whether this reader is in the fault mix's scope
// (all readers, or the one OnlyReader names).
func (c *reader) faultable(p *params) bool {
	return p.onlyIdx == 0 || p.onlyIdx == c.idx
}

// Enter implements core.Reader: maybe jitter, then enter.
func (c *reader) Enter(v core.Value) {
	p := c.e.par
	if p.enterThr != 0 && c.faultable(p) && c.r.next() < p.enterThr {
		c.e.nJitter.Add(1)
		yield()
	}
	c.rd.Enter(v)
}

// Exit implements core.Reader: maybe hold the section open (a plain
// delay, or a stall sized to outlast the watchdog timeout), then exit.
// The hold happens *before* the inner Exit, so from the engine's view
// the critical section genuinely stays open — waiters must wait it out
// and the stall watchdog must see it.
func (c *reader) Exit(v core.Value) {
	p := c.e.par
	if !c.faultable(p) {
		c.rd.Exit(v)
		return
	}
	if p.stallThr != 0 && c.r.next() < p.stallThr {
		c.e.nStall.Add(1)
		sleep(p.stallDur)
	} else if p.delayThr != 0 && c.r.next() < p.delayThr {
		c.e.nDelay.Add(1)
		sleep(p.delayDur)
	}
	c.rd.Exit(v)
}

// Do implements core.Reader via the chaos Enter/Exit, preserving the
// panic-safety guarantee.
func (c *reader) Do(v core.Value, fn func()) { core.DoCritical(c, v, fn) }

// Unregister implements core.Reader.
func (c *reader) Unregister() { c.rd.Unregister() }

var _ core.Reader = (*reader)(nil)
