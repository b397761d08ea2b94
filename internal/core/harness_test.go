package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The safety harness checks the PRCU safety property (§3.1) directly: if a
// read-side critical section on v is entered before a WaitForReaders(P)
// with P(v) = 1, it must exit before the wait returns.
//
// Each reader goroutine publishes its critical sections through a seqlock
// record: it stores the value, completes Enter, then flips the sequence odd
// ("open"); it flips the sequence even ("closed") immediately before
// invoking Exit. A waiter snapshots all open covered records before calling
// WaitForReaders and verifies every snapshotted sequence has advanced when
// the wait returns. The open marker is set only after Enter returns and the
// closed marker before Exit is invoked, so any failure is a true violation.

type csRecord struct {
	val atomic.Uint64
	seq atomic.Uint64 // odd = open critical section
	_   [48]byte
}

type safetyHarness struct {
	rcu     RCU
	records []csRecord
	stop    atomic.Bool
	fail    chan string
	wg      sync.WaitGroup
}

func newSafetyHarness(r RCU, readers int) *safetyHarness {
	return &safetyHarness{
		rcu:     r,
		records: make([]csRecord, readers),
		fail:    make(chan string, 16),
	}
}

// runReader performs critical sections on values drawn from pick.
func (h *safetyHarness) runReader(t *testing.T, id int, pick func(i int) Value) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		rd, err := h.rcu.Register()
		if err != nil {
			h.fail <- "register: " + err.Error()
			return
		}
		defer rd.Unregister()
		rec := &h.records[id]
		for i := 0; !h.stop.Load(); i++ {
			v := pick(i)
			rec.val.Store(v)
			rd.Enter(v)
			rec.seq.Add(1) // open
			// A small variable-length critical section keeps sections
			// overlapping waiter scans.
			for k := 0; k < i%17; k++ {
				_ = rec.val.Load()
			}
			rec.seq.Add(1) // closed
			rd.Exit(v)
			// Yield periodically so compute-bound readers cannot starve
			// the waiters on GOMAXPROCS=1 hosts.
			if i%32 == 0 {
				runtime.Gosched()
			}
		}
	}()
}

type csSnapshot struct {
	idx int
	seq uint64
}

// runWaiter repeatedly issues WaitForReaders(p) and checks the property.
func (h *safetyHarness) runWaiter(t *testing.T, p Predicate, waits int) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		var snap []csSnapshot
		for n := 0; n < waits && !h.stop.Load(); n++ {
			snap = snap[:0]
			for i := range h.records {
				rec := &h.records[i]
				s := rec.seq.Load()
				if s&1 == 0 {
					continue
				}
				// While seq is odd only the owner may write val, and it
				// wrote val before flipping odd — the read is stable.
				if p.Holds(rec.val.Load()) {
					snap = append(snap, csSnapshot{idx: i, seq: s})
				}
			}
			h.rcu.WaitForReaders(p)
			for _, s := range snap {
				if cur := h.records[s.idx].seq.Load(); cur == s.seq {
					h.fail <- "covered critical section survived WaitForReaders"
					h.stop.Store(true)
					return
				}
			}
		}
	}()
}

func (h *safetyHarness) finish(t *testing.T, d time.Duration) {
	timer := time.AfterFunc(d, func() { h.stop.Store(true) })
	defer timer.Stop()
	done := make(chan struct{})
	go func() { h.wg.Wait(); close(done) }()
	select {
	case msg := <-h.fail:
		h.stop.Store(true)
		<-done
		t.Fatal(msg)
	case <-done:
		select {
		case msg := <-h.fail:
			t.Fatal(msg)
		default:
		}
	case <-time.After(30 * time.Second):
		h.stop.Store(true)
		t.Fatal("safety harness deadlocked (possible WaitForReaders livelock)")
	}
}

// scale sizes a stress-test iteration count: full normally, trimmed
// under -short. Full mode is itself sized to terminate reliably on
// single-CPU hosts, where hot reader loops contend with waiters for the
// one processor.
func scale(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// scaleDur is scale for durations.
func scaleDur(full, short time.Duration) time.Duration {
	if testing.Short() {
		return short
	}
	return full
}

// engines lists every engine under test with a fresh-construction function.
func engines() map[string]func() RCU {
	return map[string]func() RCU{
		"EER":    func() RCU { return NewEER(nil) },
		"D":      func() RCU { return NewD(64) },
		"DEER":   func() RCU { return NewDEER(16, nil) },
		"Time":   func() RCU { return NewTimeRCU(nil) },
		"URCU":   func() RCU { return NewURCU() },
		"Tree":   func() RCU { return NewTreeRCU() },
		"Dist":   func() RCU { return NewDistRCU() },
		"SRCU":   func() RCU { return NewSRCU() },
		"Packed": func() RCU { return NewPacked() },
	}
}

func TestSafetyWildcardPredicate(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			h := newSafetyHarness(mk(), 8)
			for i := 0; i < 8; i++ {
				id := i
				h.runReader(t, id, func(i int) Value { return Value(id*1000 + i%50) })
			}
			for i := 0; i < 3; i++ {
				h.runWaiter(t, All(), scale(250, 80))
			}
			h.finish(t, scaleDur(200*time.Millisecond, 60*time.Millisecond))
		})
	}
}

func TestSafetySingletonPredicate(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			h := newSafetyHarness(mk(), 8)
			for i := 0; i < 8; i++ {
				id := i
				// Half the readers hammer the covered value, half read
				// other values (the waits must not be confused by them).
				h.runReader(t, id, func(i int) Value {
					if id%2 == 0 {
						return 7
					}
					return Value(100 + id + i%13)
				})
			}
			for i := 0; i < 3; i++ {
				h.runWaiter(t, Singleton(7), scale(250, 80))
			}
			h.finish(t, scaleDur(200*time.Millisecond, 60*time.Millisecond))
		})
	}
}

func TestSafetyIntervalPredicate(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			h := newSafetyHarness(mk(), 8)
			for i := 0; i < 8; i++ {
				id := i
				h.runReader(t, id, func(i int) Value { return Value((id*31 + i) % 40) })
			}
			for i := 0; i < 3; i++ {
				h.runWaiter(t, Interval(10, 20), scale(200, 60))
			}
			h.finish(t, scaleDur(200*time.Millisecond, 60*time.Millisecond))
		})
	}
}

func TestSafetyFuncPredicate(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			h := newSafetyHarness(mk(), 6)
			for i := 0; i < 6; i++ {
				id := i
				h.runReader(t, id, func(i int) Value { return Value((id + i) % 32) })
			}
			odd := Func(func(v Value) bool { return v%2 == 1 })
			for i := 0; i < 2; i++ {
				h.runWaiter(t, odd, scale(150, 50))
			}
			h.finish(t, scaleDur(200*time.Millisecond, 60*time.Millisecond))
		})
	}
}

// TestHarnessDetectsViolations ensures the safety-checking method has
// teeth: with a reader deterministically parked inside a critical section,
// the deliberately unsafe no-op engine must be caught, while a correct
// engine is exonerated by construction (its wait would block, which we also
// verify via a timeout on a correct engine below).
func TestHarnessDetectsViolations(t *testing.T) {
	r := NewNop()
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	var rec csRecord
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		rec.val.Store(5)
		rd.Enter(5)
		rec.seq.Add(1) // open
		close(entered)
		<-release
		rec.seq.Add(1) // closed
		rd.Exit(5)
	}()
	<-entered
	s := rec.seq.Load()
	if s&1 != 1 {
		t.Fatal("expected an open critical section")
	}
	r.WaitForReaders(All())
	if rec.seq.Load() != s {
		t.Fatal("critical section closed unexpectedly")
	}
	// seq unchanged after the wait returned: the harness's check condition
	// fires, i.e. the no-op engine violates the safety property.
	close(release)
}

// TestWaitBlocksOnOpenCriticalSection is the positive counterpart: a
// correct engine's WaitForReaders must not return while a covered critical
// section entered before it is still open.
func TestWaitBlocksOnOpenCriticalSection(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			release := make(chan struct{})
			exited := make(chan struct{})
			go func() {
				rd.Enter(5)
				close(entered)
				<-release
				rd.Exit(5)
				close(exited)
				rd.Unregister()
			}()
			<-entered
			returned := make(chan struct{})
			go func() {
				r.WaitForReaders(Singleton(5))
				close(returned)
			}()
			select {
			case <-returned:
				t.Fatal("WaitForReaders returned while a covered critical section was open")
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatal("WaitForReaders did not return after the reader exited")
			}
			<-exited
		})
	}
}

// TestWaitSkipsUncoveredCriticalSection checks the PRCU side of the
// property: a wait whose predicate does not cover an open critical
// section's value must not block on it (for the predicate-aware engines).
func TestWaitSkipsUncoveredCriticalSection(t *testing.T) {
	prcuEngines := map[string]func() RCU{
		"EER":  func() RCU { return NewEER(nil) },
		"D":    func() RCU { return NewD(1024) },
		"DEER": func() RCU { return NewDEER(16, nil) },
	}
	for name, mk := range prcuEngines {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			release := make(chan struct{})
			go func() {
				rd.Enter(1000) // far from the waited value, no hash collision with 5
				close(entered)
				<-release
				rd.Exit(1000)
				rd.Unregister()
			}()
			<-entered
			returned := make(chan struct{})
			go func() {
				r.WaitForReaders(Singleton(5))
				close(returned)
			}()
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatal("WaitForReaders blocked on an uncovered critical section")
			}
			close(release)
		})
	}
}

// TestWaitLivenessUnderChurn checks that waits terminate while readers
// continuously enter and exit the covered value — the scenario D-PRCU's
// gate protocol exists for.
func TestWaitLivenessUnderChurn(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rd, err := r.Register()
					if err != nil {
						t.Error(err)
						return
					}
					defer rd.Unregister()
					for i := 0; !stop.Load(); i++ {
						rd.Enter(42)
						rd.Exit(42)
						if i%32 == 0 {
							runtime.Gosched()
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() {
				iters := scale(120, 40)
				for i := 0; i < iters; i++ {
					r.WaitForReaders(Singleton(42))
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Error("WaitForReaders did not terminate under reader churn")
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestConcurrentWaiters checks that many goroutines may wait concurrently.
func TestConcurrentWaiters(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rd, err := r.Register()
					if err != nil {
						t.Error(err)
						return
					}
					defer rd.Unregister()
					for j := 0; !stop.Load(); j++ {
						v := Value((id + j) % 8)
						rd.Enter(v)
						rd.Exit(v)
						if j%32 == 0 {
							runtime.Gosched()
						}
					}
				}(i)
			}
			var waiters sync.WaitGroup
			for i := 0; i < 8; i++ {
				waiters.Add(1)
				go func(id int) {
					defer waiters.Done()
					iters := scale(40, 12)
					for j := 0; j < iters; j++ {
						r.WaitForReaders(Singleton(Value(id % 8)))
					}
				}(i)
			}
			waitDone := make(chan struct{})
			go func() { waiters.Wait(); close(waitDone) }()
			select {
			case <-waitDone:
			case <-time.After(30 * time.Second):
				t.Error("concurrent waiters did not finish")
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}
