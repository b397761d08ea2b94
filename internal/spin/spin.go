// Package spin implements the waiting discipline shared by every
// wait-for-readers loop in this module.
//
// The paper's implementations busy-wait: each waiter owns a hardware thread,
// so spinning costs nothing but the waiter's own cycles. Goroutines do not
// own hardware threads — on a GOMAXPROCS=1 host a waiter that spins without
// yielding starves the very reader whose exit it is waiting for, turning the
// wait into a livelock. Every spin loop therefore runs through a Waiter,
// which escalates through up to three phases:
//
//	spin   burn cycles re-checking the condition (cheap when it is about
//	       to become true, the common PRCU case)
//	yield  call into the scheduler with capped exponential back-off
//	park   sleep a fixed interval between checks (off by default)
//
// The phase boundaries are set by a Tuning. The zero Waiter uses the
// package defaults (spin then yield, never park) — exactly the historical
// behavior — while a Waiter carrying a *Tuning can be biased toward
// spinning (latency) or parking (CPU relief) at runtime. The adaptive
// controller (internal/adapt) switches engines between tunings under
// load; see core.WaitTuner.
package spin

import (
	"runtime"
	"time"
)

// DefaultSpinBudget is the number of pure (non-yielding) iterations before
// the waiter starts calling into the scheduler. The value is deliberately
// small: PRCU wait loops either exit almost immediately (no conflicting
// readers) or wait for a full critical section, which on a loaded machine
// exceeds any sensible spin budget anyway.
const DefaultSpinBudget = 64

// DefaultYieldBurst caps the exponential growth of consecutive Gosched
// calls so a long wait still polls its condition at a reasonable rate.
const DefaultYieldBurst = 16

// DefaultParkAfter is the number of yield-phase steps a parking Tuning
// (Park > 0) takes before it starts sleeping, when the Tuning does not
// say otherwise.
const DefaultParkAfter = 32

// Tuning sets a Waiter's phase boundaries. The zero value (and a nil
// *Tuning) means the package defaults: spin DefaultSpinBudget iterations,
// then yield with bursts capped at DefaultYieldBurst, never park.
type Tuning struct {
	// SpinBudget is the number of pure spin iterations before the yield
	// phase. 0 means DefaultSpinBudget; negative means none (yield from
	// the first step).
	SpinBudget int
	// YieldBurst caps consecutive Gosched calls per step in the yield
	// phase. 0 means DefaultYieldBurst.
	YieldBurst int
	// Park, when positive, enables the third phase: after ParkAfter
	// yield-phase steps, each further step sleeps Park instead of
	// yielding — trading wake-up latency for CPU. Zero disables parking.
	Park time.Duration
	// ParkAfter is the number of yield-phase steps before parking begins
	// (only meaningful when Park > 0). 0 means DefaultParkAfter.
	ParkAfter int
}

// spinBudget resolves the tuned spin budget.
func (t *Tuning) spinBudget() int {
	if t == nil || t.SpinBudget == 0 {
		return DefaultSpinBudget
	}
	if t.SpinBudget < 0 {
		return 0
	}
	return t.SpinBudget
}

// yieldBurst resolves the tuned burst cap.
func (t *Tuning) yieldBurst() int {
	if t == nil || t.YieldBurst <= 0 {
		return DefaultYieldBurst
	}
	return t.YieldBurst
}

// parkAfter resolves the tuned park threshold.
func (t *Tuning) parkAfter() int {
	if t == nil || t.ParkAfter <= 0 {
		return DefaultParkAfter
	}
	return t.ParkAfter
}

// Waiter tracks back-off state across iterations of one wait loop.
// The zero value is ready to use; a Waiter must not be shared. T, when
// non-nil, overrides the package-default phase boundaries; it is read on
// every step, so the pointed-to Tuning must not be mutated while the
// Waiter runs (engines swap a fresh pointer instead — see core.WaitTuner).
type Waiter struct {
	T      *Tuning
	spins  int
	steps  int // yield-phase steps taken
	burst  int
	parked bool
}

// Wait performs one back-off step. Call it once per failed condition check.
func (w *Waiter) Wait() {
	t := w.T
	if w.spins < t.spinBudget() {
		w.spins++
		return
	}
	w.steps++
	if t != nil && t.Park > 0 && w.steps > t.parkAfter() {
		if w.burst == 0 {
			w.burst = 1 // parking counts as having left the spin phase
		}
		w.parked = true
		time.Sleep(t.Park)
		return
	}
	if w.burst < t.yieldBurst() {
		w.burst++
	}
	for i := 0; i < w.burst; i++ {
		runtime.Gosched()
	}
}

// Yielded reports whether this waiter has exhausted its spin budget and
// crossed into the scheduler-yielding (or parking) phase since its last
// Reset — the spin→park transition the observability layer counts.
func (w *Waiter) Yielded() bool { return w.burst > 0 }

// Parked reports whether this waiter has escalated past yielding into
// timed sleeps since its last Reset (only possible under a Tuning with
// Park > 0).
func (w *Waiter) Parked() bool { return w.parked }

// Reset returns the waiter to its initial phase, keeping its Tuning. Use
// when the same Waiter value is reused for a logically new wait (e.g. the
// next reader slot in a wait-for-readers scan), so a slow previous wait
// does not penalize it.
func (w *Waiter) Reset() {
	w.spins = 0
	w.steps = 0
	w.burst = 0
	w.parked = false
}

// Until spins until cond returns true, using a fresh default-tuned Waiter
// for back-off.
func Until(cond func() bool) {
	var w Waiter
	for !cond() {
		w.Wait()
	}
}
