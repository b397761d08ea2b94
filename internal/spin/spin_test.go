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
	w := Waiter{T: &Tuning{SpinBudget: 4}}
	for i := 0; i < DefaultSpinBudget+5; i++ {
		w.Wait()
	}
	if w.burst == 0 {
		t.Fatal("waiter never escalated to yielding")
	}
	w.Reset()
	if w.spins != 0 || w.burst != 0 || w.steps != 0 || w.parked {
		t.Fatal("Reset did not clear state")
	}
	if w.T == nil {
		t.Fatal("Reset must keep the waiter's Tuning")
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

func TestTuningSpinBudgetOverride(t *testing.T) {
	// Negative budget: yield from the very first step.
	w := Waiter{T: &Tuning{SpinBudget: -1}}
	w.Wait()
	if !w.Yielded() {
		t.Fatal("SpinBudget < 0 must yield on the first step")
	}
	// Enlarged budget: still spinning where the default would have yielded.
	w = Waiter{T: &Tuning{SpinBudget: DefaultSpinBudget * 4}}
	for i := 0; i < DefaultSpinBudget*2; i++ {
		w.Wait()
	}
	if w.Yielded() {
		t.Fatal("enlarged SpinBudget must extend the spin phase")
	}
}

func TestTuningParkEscalation(t *testing.T) {
	tun := &Tuning{SpinBudget: 1, ParkAfter: 2, Park: time.Microsecond}
	w := Waiter{T: tun}
	// 1 spin step + 2 yield steps: not yet parked.
	for i := 0; i < 3; i++ {
		w.Wait()
	}
	if w.Parked() {
		t.Fatal("parked before ParkAfter yield steps elapsed")
	}
	w.Wait() // third yield-phase step: past ParkAfter, must park
	if !w.Parked() {
		t.Fatal("did not park after ParkAfter yield steps")
	}
	if !w.Yielded() {
		t.Fatal("a parked waiter must also report Yielded (it left the spin phase)")
	}
	w.Reset()
	if w.Parked() {
		t.Fatal("Reset did not clear the parked flag")
	}
}

func TestZeroTuningMatchesDefaults(t *testing.T) {
	// A zero Tuning must behave exactly like the nil default: same spin
	// budget boundary, same burst cap, no parking.
	wd, wt := Waiter{}, Waiter{T: &Tuning{}}
	for i := 0; i < DefaultSpinBudget+64; i++ {
		wd.Wait()
		wt.Wait()
		if wd.Yielded() != wt.Yielded() || wd.burst != wt.burst {
			t.Fatalf("step %d: zero Tuning diverged from defaults (burst %d vs %d)",
				i, wt.burst, wd.burst)
		}
	}
	if wt.Parked() {
		t.Fatal("zero Tuning must never park")
	}
}
