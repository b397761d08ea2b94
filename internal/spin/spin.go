// Package spin implements the waiting discipline shared by every
// wait-for-readers loop in this module.
//
// The paper's implementations busy-wait: each waiter owns a hardware thread,
// so spinning costs nothing but the waiter's own cycles. Goroutines do not
// own hardware threads — on a GOMAXPROCS=1 host a waiter that spins without
// yielding starves the very reader whose exit it is waiting for, turning the
// wait into a livelock. Every spin loop therefore runs through a Waiter,
// which escalates through two phases:
//
//	spin   burn cycles re-checking the condition (cheap when it is about
//	       to become true, the common PRCU case)
//	yield  call into the scheduler with capped exponential back-off
package spin

import "runtime"

// DefaultSpinBudget is the number of pure (non-yielding) iterations before
// the waiter starts calling into the scheduler. The value is deliberately
// small: PRCU wait loops either exit almost immediately (no conflicting
// readers) or wait for a full critical section, which on a loaded machine
// exceeds any sensible spin budget anyway.
const DefaultSpinBudget = 64

// DefaultYieldBurst caps the exponential growth of consecutive Gosched
// calls so a long wait still polls its condition at a reasonable rate.
const DefaultYieldBurst = 16

// Waiter tracks back-off state across iterations of one wait loop.
// The zero value is ready to use; a Waiter must not be shared.
type Waiter struct {
	spins int
	burst int
}

// Wait performs one back-off step. Call it once per failed condition check.
func (w *Waiter) Wait() {
	if w.spins < DefaultSpinBudget {
		w.spins++
		return
	}
	if w.burst < DefaultYieldBurst {
		w.burst++
	}
	for i := 0; i < w.burst; i++ {
		runtime.Gosched()
	}
}

// Yielded reports whether this waiter has exhausted its spin budget and
// crossed into the scheduler-yielding phase since its last Reset — the
// spin→park transition the observability layer counts.
func (w *Waiter) Yielded() bool { return w.burst > 0 }

// Reset returns the waiter to its initial phase. Use when the same Waiter
// value is reused for a logically new wait (e.g. the next reader slot in
// a wait-for-readers scan), so a slow previous wait does not penalize it.
func (w *Waiter) Reset() {
	w.spins = 0
	w.burst = 0
}

// Until spins until cond returns true, using a fresh Waiter for back-off.
func Until(cond func() bool) {
	var w Waiter
	for !cond() {
		w.Wait()
	}
}
