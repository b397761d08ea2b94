package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"prcu/internal/obs"
)

// flavorOrder lists the engines() keys in a fixed order, so table-driven
// tests over the nine flavors report in the same order every run.
var flavorOrder = []string{"EER", "D", "DEER", "Time", "URCU", "Tree", "Dist", "SRCU", "Packed"}

// waitEntry is one of the three ways a wait is entered: plain, bounded by
// a cancellable Context, or plain with the stall watchdog armed.
type waitEntry struct {
	name string
	arm  bool
	wait func(r RCU, ctx context.Context, p Predicate) error
}

var waitEntries = []waitEntry{
	{"plain", false, func(r RCU, _ context.Context, p Predicate) error { r.WaitForReaders(p); return nil }},
	{"ctx", false, func(r RCU, ctx context.Context, p Predicate) error { return r.WaitForReadersCtx(ctx, p) }},
	{"armed", true, func(r RCU, _ context.Context, p Predicate) error { r.WaitForReaders(p); return nil }},
}

// TestWaitCtxKeepsGPWithoutControl is the regression test for the lost
// grace-period ID: a Context that can never be cancelled needs no
// cancellation state, but the GP ID it carries must still reach the wait
// span — otherwise the reclaimer→wait span chain breaks whenever the
// watchdog happens to be unarmed.
func TestWaitCtxKeepsGPWithoutControl(t *testing.T) {
	const gp = 4242
	for _, name := range flavorOrder {
		t.Run(name, func(t *testing.T) {
			r := engines()[name]()
			m := obs.New()
			m.EnableFlightRecorder(16)
			r.(MetricsCarrier).SetMetrics(m)
			if err := r.WaitForReadersCtx(obs.WithGP(context.Background(), gp), All()); err != nil {
				t.Fatal(err)
			}
			spans := m.FlightSnapshot()
			if len(spans) != 1 || spans[0].Kind != obs.SpanWait {
				t.Fatalf("recorded spans = %+v, want exactly one wait span", spans)
			}
			if spans[0].GP != gp {
				t.Fatalf("wait span GP = %d, want the context's %d", spans[0].GP, gp)
			}
		})
	}
}

// TestWaitDoesNotAllocate pins the wait path at zero heap allocations
// through every entry point: the wait session (control block included)
// lives on the waiter's stack.
func TestWaitDoesNotAllocate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range flavorOrder {
		for _, metered := range []bool{false, true} {
			r := engines()[name]()
			if metered {
				r.(MetricsCarrier).SetMetrics(obs.New())
			}
			for i := 0; i < 2; i++ {
				rd, err := r.Register()
				if err != nil {
					t.Fatal(err)
				}
				rd.Enter(Value(i))
				rd.Exit(Value(i))
			}
			p := Singleton(1)
			for _, en := range waitEntries {
				if en.arm {
					r.(StallCarrier).SetStallConfig(StallConfig{Timeout: time.Hour})
				}
				allocs := testing.AllocsPerRun(200, func() {
					if err := en.wait(r, ctx, p); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s (metrics %v): %v allocs per wait, want 0", name, en.name, metered, allocs)
				}
			}
		}
	}
}

// bookkeeping is what one wait leaves behind in the metrics: the
// selectivity counters, the drain outcomes and the blamed slot set.
type bookkeeping struct {
	scanned, waited, parked uint64
	opt, gate, piggy        uint64
	blamed                  []int
}

// TestWaitBookkeepingExact scripts one scenario per flavor — slot 0 parked
// inside a covered section until the waiter is well into its yield phase,
// slot 1 quiescent — and pins the exact counter deltas and blamed slots
// of a completed wait through each entry point, and of a cancelled wait.
// D-PRCU and SRCU count counter nodes, not readers; URCU and Packed scan
// every slot once per phase.
func TestWaitBookkeepingExact(t *testing.T) {
	const v = Value(7)
	const tableSize = 64 // engines() builds D with a 64-node table
	dNodeIdx := int(hashValue(v) & (tableSize - 1))
	type want struct{ done, cancelled bookkeeping }
	wants := map[string]want{
		"EER":    {bookkeeping{2, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 0, 0, []int{0}}},
		"DEER":   {bookkeeping{2, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 0, 0, []int{0}}},
		"Time":   {bookkeeping{2, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 0, 0, []int{0}}},
		"Dist":   {bookkeeping{2, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 0, 0, []int{0}}},
		"URCU":   {bookkeeping{4, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 0, 0, []int{0}}},
		"Packed": {bookkeeping{4, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 0, 0, []int{0}}},
		"Tree":   {bookkeeping{2, 1, 1, 0, 0, 0, []int{0}}, bookkeeping{2, 1, 1, 0, 0, 0, []int{0}}},
		"D":      {bookkeeping{1, 1, 1, 0, 1, 0, []int{dNodeIdx}}, bookkeeping{1, 1, 1, 0, 1, 0, []int{dNodeIdx}}},
		"SRCU":   {bookkeeping{1, 1, 1, 0, 1, 0, []int{0}}, bookkeeping{1, 1, 1, 0, 1, 0, []int{0}}},
	}
	// hold is how long the reader stays parked after the wait starts. No
	// event marks a waiter crossing into its yield phase, so this is time:
	// the spin budget and D-PRCU's optimistic phase are over within
	// microseconds, four orders of magnitude under hold, so the wait is
	// deep in its yield phase (and D/SRCU in the gate protocol) by then.
	const hold = 50 * time.Millisecond

	run := func(t *testing.T, name string, en waitEntry, cancelWait bool) bookkeeping {
		r := engines()[name]()
		m := obs.New()
		m.EnableFlightRecorder(16)
		r.(MetricsCarrier).SetMetrics(m)
		if en.arm {
			r.(StallCarrier).SetStallConfig(StallConfig{Timeout: time.Hour})
		}
		// Both readers stay registered until the wait is over, so a
		// two-phase scan sees the same two slots in each phase.
		held, err := r.Register() // slot 0
		if err != nil {
			t.Fatal(err)
		}
		idle, err := r.Register() // slot 1
		if err != nil {
			t.Fatal(err)
		}
		idle.Enter(v + 1)
		idle.Exit(v + 1)
		entered, exit, exited := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			held.Enter(v)
			close(entered)
			<-exit
			held.Exit(v)
			close(exited)
		}()
		<-entered
		release := func() { close(exit); <-exited }

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- en.wait(r, ctx, Singleton(v)) }()
		select {
		case err := <-done:
			t.Fatalf("wait returned %v with a covered section open", err)
		case <-time.After(hold):
		}
		if cancelWait {
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
			}
			release()
		} else {
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		held.Unregister()
		idle.Unregister()

		s := r.Stats()
		if s.Waits != 1 {
			t.Fatalf("Waits = %d, want 1", s.Waits)
		}
		got := bookkeeping{
			scanned: s.ReadersScanned, waited: s.ReadersWaited, parked: s.Parks,
			opt: s.DrainsOptimistic, gate: s.DrainsGate, piggy: s.DrainsPiggyback,
		}
		for _, sp := range m.FlightSnapshot() {
			for _, b := range sp.Blame {
				if b.DelayNs < (hold / 2).Nanoseconds() {
					t.Errorf("slot %d blamed for %v, want at least half the %v it was held", b.Slot, time.Duration(b.DelayNs), hold)
				}
				got.blamed = append(got.blamed, b.Slot)
			}
		}
		slices.Sort(got.blamed)
		return got
	}
	check := func(t *testing.T, got, want bookkeeping) {
		t.Helper()
		if got.scanned != want.scanned || got.waited != want.waited || got.parked != want.parked ||
			got.opt != want.opt || got.gate != want.gate || got.piggy != want.piggy ||
			!slices.Equal(got.blamed, want.blamed) {
			t.Fatalf("bookkeeping = %+v, want %+v", got, want)
		}
	}
	for _, name := range flavorOrder {
		for _, en := range waitEntries {
			t.Run(name+"/"+en.name, func(t *testing.T) {
				check(t, run(t, name, en, false), wants[name].done)
			})
		}
		t.Run(name+"/cancelled", func(t *testing.T) {
			check(t, run(t, name, waitEntries[1], true), wants[name].cancelled)
		})
	}
}
