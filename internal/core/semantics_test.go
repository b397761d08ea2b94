package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/tsc"
)

// findCollision returns two distinct values whose hashes collide under
// the given mask, and a third value that collides with neither.
func findCollision(t *testing.T, mask uint64) (a, b, free Value) {
	t.Helper()
	a = 1
	for b = a + 1; ; b++ {
		if hashValue(b)&mask == hashValue(a)&mask {
			break
		}
		if b > 1<<20 {
			t.Fatal("no collision found")
		}
	}
	for free = b + 1; ; free++ {
		if hashValue(free)&mask != hashValue(a)&mask && hashValue(free)&mask != hashValue(b)&mask {
			return a, b, free
		}
	}
}

// waitReturnsWithin asserts WaitForReaders(p) completes promptly.
func waitReturnsWithin(t *testing.T, r RCU, p Predicate, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		r.WaitForReaders(p)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("WaitForReaders blocked unexpectedly")
	}
}

// waitBlocks asserts WaitForReaders(p) does not return until release runs.
func waitBlocks(t *testing.T, r RCU, p Predicate, release func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		r.WaitForReaders(p)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitForReaders returned while the covered section was open")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitForReaders did not return after release")
	}
}

// TestDPRCUCollisionIsConservative: D-PRCU cannot distinguish values that
// hash to the same counter, so a wait on a colliding value must block —
// conservative, hence safe.
func TestDPRCUCollisionIsConservative(t *testing.T) {
	d := NewD(16)
	a, b, free := findCollision(t, 15)
	rd, _ := d.Register()
	rd.Enter(a)
	// Wait on the colliding value must block until exit.
	waitBlocks(t, d, Singleton(b), func() { rd.Exit(a) })
	// Wait on a non-colliding value must not block even with a reader in
	// a critical section elsewhere.
	rd.Enter(a)
	waitReturnsWithin(t, d, Singleton(free), 10*time.Second)
	rd.Exit(a)
	rd.Unregister()
}

// TestDEERCollisionSkipsUncovered: DEER stores the value in the node, so
// a wait on a colliding-but-uncovered value can (and does) skip the
// reader, unlike D-PRCU.
func TestDEERCollisionSkipsUncovered(t *testing.T) {
	d := NewDEER(16, nil)
	a, b, _ := findCollision(t, 15)
	rd, _ := d.Register()
	rd.Enter(a)
	waitReturnsWithin(t, d, Singleton(b), 10*time.Second)
	// But a covering predicate over the same node must block.
	waitBlocks(t, d, Singleton(a), func() { rd.Exit(a) })
	rd.Unregister()
}

// TestEERRevaluatesPredicatePerReader: the paper's Figure 4 scenario in
// miniature — a reader that moves off a covered value releases the wait
// through re-entry, not only through exit.
func TestEERReaderReentryReleasesWait(t *testing.T) {
	e := NewEER(nil)
	rd, _ := e.Register()
	rd.Enter(7)
	done := make(chan struct{})
	go func() {
		e.WaitForReaders(Singleton(7))
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("wait returned while reader was on covered value")
	default:
	}
	// Exit and re-enter on an uncovered value: the wait must now finish
	// even though the reader never goes quiescent again.
	rd.Exit(7)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			rd.Enter(99)
			rd.Exit(99)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wait did not release after reader moved to uncovered value")
	}
	stop.Store(true)
	wg.Wait()
	rd.Unregister()
}

// TestManualClockWaitSemantics pins EER's time-based quiescence detection
// to a deterministic clock: a wait started strictly after an enter blocks
// until the reader posts a strictly later time (here: Infinity at exit).
func TestManualClockWaitSemantics(t *testing.T) {
	clock := tsc.NewManual(100)
	e := NewEER(clock)
	rd, _ := e.Register()
	rd.Enter(5) // records t=100
	clock.Advance(10)
	waitBlocks(t, e, Singleton(5), func() { rd.Exit(5) })
	rd.Unregister()
}

// TestRegisterChurnDuringWaits stresses slot reuse racing wait scans.
func TestRegisterChurnDuringWaits(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for !stop.Load() {
						rd, err := r.Register()
						if err != nil {
							continue // transient exhaustion is fine
						}
						for i := 0; i < 10; i++ {
							v := Value(g*10 + i)
							rd.Enter(v)
							rd.Exit(v)
						}
						rd.Unregister()
					}
				}(g)
			}
			done := make(chan struct{})
			go func() {
				for i := 0; i < 300; i++ {
					r.WaitForReaders(All())
					r.WaitForReaders(Singleton(Value(i % 40)))
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Error("waits did not complete under register churn")
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestWaitersDoNotWaitForThemselves: an updater that was recently a
// reader (the CITRUS pattern: traverse, exit, lock, wait) must not block
// on its own slot.
func TestWaitersDoNotWaitForThemselves(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, _ := r.Register()
			rd.Enter(5)
			rd.Exit(5)
			done := make(chan struct{})
			go func() {
				// Same goroutine pattern is typical, but the property is
				// about the slot either way.
				r.WaitForReaders(Singleton(5))
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("wait blocked on the waiter's own quiescent slot")
			}
			rd.Unregister()
		})
	}
}

// TestDEERGeneralPredicateScansAllNodes: a non-enumerable predicate must
// still be safe on DEER (it scans the whole per-reader table).
func TestDEERGeneralPredicate(t *testing.T) {
	d := NewDEER(16, nil)
	rd, _ := d.Register()
	rd.Enter(41)
	odd := Func(func(v Value) bool { return v%2 == 1 })
	waitBlocks(t, d, odd, func() { rd.Exit(41) })
	// Even value: predicate does not cover it.
	rd.Enter(40)
	waitReturnsWithin(t, d, odd, 10*time.Second)
	rd.Exit(40)
	rd.Unregister()
}

// TestDGeneralPredicateDrainsWholeTable: D-PRCU's fallback for general
// predicates drains every node — safe for any value.
func TestDGeneralPredicate(t *testing.T) {
	d := NewD(16)
	rd, _ := d.Register()
	rd.Enter(41)
	odd := Func(func(v Value) bool { return v%2 == 1 })
	waitBlocks(t, d, odd, func() { rd.Exit(41) })
	rd.Unregister()
}

// TestPluggableClockEngines: the timestamp engines accept any Clock,
// including the logical fetch-add clock (§4.1's portable alternative).
func TestLogicalClockEngines(t *testing.T) {
	for _, mk := range logicalClockEngines() {
		r := mk()
		h := newSafetyHarness(r, 4)
		for i := 0; i < 4; i++ {
			id := i
			h.runReader(t, id, func(i int) Value { return Value((id + i) % 16) })
		}
		h.runWaiter(t, Interval(4, 8), 200)
		h.finish(t, 150*time.Millisecond)
	}
}
