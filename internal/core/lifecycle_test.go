package core

import (
	"strings"
	"sync"
	"testing"

	"prcu/internal/obs"
)

// enginesWithNop extends engines() with the Nop wrapper, which shares the
// registry and misuse-guard machinery and must behave identically there.
func enginesWithNop() map[string]func() RCU {
	m := engines()
	m["Nop"] = func() RCU { return NewNop() }
	return m
}

func mustPanicContaining(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, want) {
			t.Fatalf("panic = %v, want containing %q", r, want)
		}
	}()
	fn()
}

func TestDoubleUnregisterPanics(t *testing.T) {
	for name, mk := range enginesWithNop() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			rd.Unregister()
			mustPanicContaining(t, "Unregister called twice", rd.Unregister)
		})
	}
}

func TestUseAfterUnregisterPanics(t *testing.T) {
	// Nop is excluded: its Enter/Exit are deliberately empty (it measures
	// the zero-synchronization ceiling), so only its Unregister is guarded.
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			rd.Enter(1)
			rd.Exit(1)
			rd.Unregister()
			mustPanicContaining(t, "after Unregister", func() { rd.Enter(2) }) //prcuvet:ignore — Enter must panic, no section opens
			mustPanicContaining(t, "after Unregister", func() { rd.Exit(2) })
		})
	}
}

// TestRejectedUnregisterLeavesReaderUsable pins the recovery contract: an
// Unregister rejected for being inside a critical section must leave the
// reader fully usable, so the caller can exit and retry.
func TestRejectedUnregisterLeavesReaderUsable(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			rd.Enter(7)
			mustPanicContaining(t, "critical section", rd.Unregister)
			rd.Exit(7)
			rd.Enter(8)
			rd.Exit(8)
			rd.Unregister()
		})
	}
}

// TestLaneNotSmearedAcrossSlotReuse is the regression test for per-reader
// observability lanes surviving slot reuse: a reader registered into a
// recycled slot must start from a zeroed lane, while the totals already
// accumulated by the slot's previous owners stay in the engine snapshot.
func TestLaneNotSmearedAcrossSlotReuse(t *testing.T) {
	for name, mk := range engines() { // one reader at a time: every reader reuses slot 0
		t.Run(name, func(t *testing.T) {
			r := mk()
			m := obs.New()
			r.(MetricsCarrier).SetMetrics(m)

			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				rd.Enter(Value(i))
				rd.Exit(Value(i))
			}
			if got := m.Lane(0).Enters(); got != 5 {
				t.Fatalf("first owner lane enters = %d, want 5", got)
			}
			rd.Unregister()

			rd2, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Lane(0).Enters(); got != 0 {
				t.Fatalf("recycled lane starts at %d enters, want 0 (smeared from previous owner)", got)
			}
			rd2.Enter(9)
			rd2.Exit(9)
			if got := m.Lane(0).Enters(); got != 1 {
				t.Fatalf("second owner lane enters = %d, want 1", got)
			}
			if got := m.Snapshot().Enters; got != 6 {
				t.Fatalf("snapshot total enters = %d, want 6 (retired + live)", got)
			}
			rd2.Unregister()
		})
	}
}

// TestReaderChurnConcurrentWaits races reader registration/unregistration
// (with a critical section in between) against concurrent wait-for-readers
// on every engine. Run under -race this exercises the registry's
// claim/release protocol, segment growth, and each engine's scan of a
// population that changes under its feet.
func TestReaderChurnConcurrentWaits(t *testing.T) {
	for name, mk := range enginesWithNop() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			stop := make(chan struct{})
			var waiters sync.WaitGroup
			for w := 0; w < 2; w++ {
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					for {
						select {
						case <-stop:
							return
						default:
							r.WaitForReaders(All())
						}
					}
				}()
			}

			const churners = 8
			iters := scale(300, 60)
			var wg sync.WaitGroup
			for g := 0; g < churners; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						rd, err := r.Register()
						if err != nil {
							t.Errorf("Register: %v", err)
							return
						}
						v := Value(seed*64 + i%16)
						rd.Enter(v)
						rd.Exit(v)
						rd.Unregister()
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			waiters.Wait()

			if got := r.(interface{ LiveReaders() int }).LiveReaders(); got != 0 {
				t.Fatalf("LiveReaders = %d after churn, want 0", got)
			}
			// The registry must end fully drained and still usable.
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			rd.Enter(1)
			rd.Exit(1)
			r.WaitForReaders(All())
			rd.Unregister()
		})
	}
}
