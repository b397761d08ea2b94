package spin

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestUntilImmediate(t *testing.T) {
	calls := 0
	Until(func() bool { calls++; return true })
	if calls != 1 {
		t.Fatalf("cond evaluated %d times, want 1", calls)
	}
}

func TestUntilEventually(t *testing.T) {
	var flag atomic.Bool
	time.AfterFunc(10*time.Millisecond, func() { flag.Store(true) })
	done := make(chan struct{})
	go func() {
		Until(flag.Load)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Until did not observe the condition")
	}
}

func TestUntilYieldsOnSingleProc(t *testing.T) {
	// The critical liveness property on a 1-CPU host: a spinning waiter
	// must yield so the goroutine that will satisfy the condition can run.
	// The flag is flipped by another goroutine with no timer involved; if
	// Until never yielded, this would rely solely on async preemption and
	// take far longer than the budgeted window.
	var flag atomic.Bool
	go func() { flag.Store(true) }()
	done := make(chan struct{})
	go func() {
		Until(flag.Load)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Until starved its producer")
	}
}

// TestWaiterYieldTransitionBoundary pins the exact step at which a waiter
// crosses from pure spinning into scheduler yields — the boundary the Ctx
// waits and the stall watchdog key their checks on (waitSession.step only
// polls cancellation once Yielded reports true).
func TestWaiterYieldTransitionBoundary(t *testing.T) {
	var w Waiter
	for i := 0; i < DefaultSpinBudget; i++ {
		w.Wait()
		if w.Yielded() {
			t.Fatalf("waiter yielded at spin step %d, inside the budget of %d", i+1, DefaultSpinBudget)
		}
	}
	w.Wait() // first step past the budget
	if !w.Yielded() {
		t.Fatalf("waiter did not yield on step %d, first past the spin budget", DefaultSpinBudget+1)
	}
}

func TestWaiterReset(t *testing.T) {
	var w Waiter
	for i := 0; i < DefaultSpinBudget+5; i++ {
		w.Wait()
	}
	if w.burst == 0 {
		t.Fatal("waiter never escalated to yielding")
	}
	w.Reset()
	if w.spins != 0 || w.burst != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestWaiterBurstCapped(t *testing.T) {
	var w Waiter
	for i := 0; i < DefaultSpinBudget+DefaultYieldBurst*4; i++ {
		w.Wait()
	}
	if w.burst > DefaultYieldBurst {
		t.Fatalf("burst %d exceeds cap %d", w.burst, DefaultYieldBurst)
	}
}
