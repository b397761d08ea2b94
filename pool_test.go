package prcu_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prcu"
)

// liveReaders reports the engine's registered-reader count; every engine
// in this module exposes it outside the RCU interface.
func liveReaders(t *testing.T, r prcu.RCU) int {
	t.Helper()
	lr, ok := r.(interface{ LiveReaders() int })
	if !ok {
		t.Fatalf("%s does not expose LiveReaders", r.Name())
	}
	return lr.LiveReaders()
}

func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, want) {
			t.Fatalf("panic = %v, want containing %q", r, want)
		}
	}()
	fn()
}

func TestReaderPoolReusesReaders(t *testing.T) {
	r := prcu.NewD(prcu.Options{})
	pool := prcu.NewReaderPool(r)
	for i := 0; i < 200; i++ {
		rd := pool.Get()
		rd.Enter(prcu.Value(i))
		rd.Exit(prcu.Value(i))
		pool.Put(rd)
	}
	// Sequential borrow/return must amortize to a handful of underlying
	// registrations, not one per cycle. Under -race the runtime
	// intentionally drops a fraction of sync.Pool items, so the tight
	// bound only holds without it.
	if n := liveReaders(t, r); n < 1 || (!raceEnabled && n > 4) {
		t.Fatalf("LiveReaders = %d after 200 sequential borrows, want a small constant", n)
	}
}

func TestReaderPoolUnregisterReturnsToPool(t *testing.T) {
	r := prcu.NewEER(prcu.Options{})
	pool := prcu.NewReaderPool(r)
	rd := pool.Get()
	rd.Enter(1)
	rd.Exit(1)
	// Code written against the plain Reader contract calls Unregister; on
	// a pooled handle that must mean "return to pool", keeping the
	// underlying reader registered and warm.
	rd.Unregister()
	if n := liveReaders(t, r); n != 1 {
		t.Fatalf("LiveReaders = %d after pooled Unregister, want 1 (still registered)", n)
	}
	expectPanic(t, "use of pooled Reader after Put", func() { rd.Enter(2) }) //prcuvet:ignore — Enter must panic before the section opens
}

func TestReaderPoolMisusePanics(t *testing.T) {
	r := prcu.NewD(prcu.Options{})
	pool := prcu.NewReaderPool(r)

	rd := pool.Get()
	pool.Put(rd)
	expectPanic(t, "Put called twice", func() { pool.Put(rd) })
	expectPanic(t, "use of pooled Reader after Put", func() { rd.Enter(1) }) //prcuvet:ignore — Enter must panic before the section opens
	expectPanic(t, "use of pooled Reader after Put", func() { rd.Exit(1) })

	other := prcu.NewReaderPool(prcu.NewD(prcu.Options{}))
	foreign := other.Get()
	expectPanic(t, "not obtained from this pool", func() { pool.Put(foreign) })
	other.Put(foreign)

	pinned, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	expectPanic(t, "not obtained from this pool", func() { pool.Put(pinned) })
	pinned.Unregister()
}

func TestReaderPoolCriticalPanicSafety(t *testing.T) {
	// One P for the whole test: sync.Pool parks a returned handle in the
	// cache of the P that ran Put, out of reach of a Get that runs on
	// another, so only on one P does "the next borrow reuses the handle"
	// follow from "the handle was returned". That makes the exact bound
	// below deterministic without loosening it to let a leak through.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := prcu.NewDEER(prcu.Options{})
	pool := prcu.NewReaderPool(r)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the user panic to propagate")
			}
		}()
		pool.Critical(5, func() { panic("user bug") })
	}()

	// The panicking section must have been exited and its handle returned:
	// a full wait completes, and the next borrow finds a quiescent reader.
	done := make(chan struct{})
	go func() {
		r.WaitForReaders(prcu.All())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitForReaders stuck: Critical leaked an open critical section")
	}
	pool.Critical(5, func() {})
	// Under -race the runtime intentionally drops a fraction of sync.Pool
	// items at Put, so the second Critical may have registered a fresh
	// reader while the first awaits its finalizer; the tight bound only
	// holds without it.
	if n := liveReaders(t, r); n < 1 || (!raceEnabled && n != 1) {
		t.Fatalf("LiveReaders = %d, want 1", n)
	}
}

// TestReaderPoolGCReclaimsSlots checks the finalizer safety net: when the
// GC purges the sync.Pool cache (or a borrower leaks a handle), the
// underlying registry slots are released rather than leaked, and the pool
// keeps working afterwards.
func TestReaderPoolGCReclaimsSlots(t *testing.T) {
	r := prcu.NewTimeRCU(prcu.Options{})
	pool := prcu.NewReaderPool(r)

	const n = 32
	handles := make([]prcu.Reader, n)
	var wg sync.WaitGroup
	for i := range handles {
		// Borrow from separate goroutines so the handles land in more than
		// one per-P cache and genuinely coexist.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rd := pool.Get()
			rd.Enter(prcu.Value(i))
			rd.Exit(prcu.Value(i))
			handles[i] = rd
		}(i)
	}
	wg.Wait()
	if got := liveReaders(t, r); got != n {
		t.Fatalf("LiveReaders = %d with %d handles out, want %d", got, n, n)
	}
	for _, rd := range handles {
		pool.Put(rd)
	}
	clear(handles)

	// sync.Pool victim caches survive one collection; finalizers run on a
	// background goroutine after the object is collected. Keep collecting
	// until the reclamation is visible or we time out.
	deadline := time.Now().Add(20 * time.Second)
	for liveReaders(t, r) >= n {
		if time.Now().After(deadline) {
			t.Fatalf("LiveReaders still %d after repeated GC, finalizers never released pooled slots", liveReaders(t, r))
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}

	// The pool must still be fully functional after a purge.
	pool.Critical(1, func() {})
	r.WaitForReaders(prcu.All())
}

// TestUncappedRegisterNeverFails: Register must never fail no matter how
// many readers are live, and a grace period over the grown population must
// still complete. Over 10k concurrently registered readers per engine.
func TestUncappedRegisterNeverFails(t *testing.T) {
	const goroutines = 16
	per := 640 // 10240 concurrent readers
	if testing.Short() {
		per = 80
	}
	for _, f := range prcu.Flavors() {
		t.Run(string(f), func(t *testing.T) {
			r := prcu.MustNew(f, prcu.Options{})
			readers := make([][]prcu.Reader, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					own := make([]prcu.Reader, 0, per)
					for i := 0; i < per; i++ {
						rd, err := r.Register()
						if err != nil {
							t.Errorf("uncapped Register failed at reader %d: %v", i, err)
							break
						}
						v := prcu.Value(g*per + i)
						rd.Enter(v)
						rd.Exit(v)
						own = append(own, rd)
					}
					readers[g] = own
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			want := goroutines * per
			if got := liveReaders(t, r); got != want {
				t.Fatalf("LiveReaders = %d, want %d", got, want)
			}
			// A wait across the fully grown registry must terminate.
			r.WaitForReaders(prcu.All())

			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, rd := range readers[g] {
						rd.Unregister()
					}
				}(g)
			}
			wg.Wait()
			if got := liveReaders(t, r); got != 0 {
				t.Fatalf("LiveReaders = %d after release, want 0", got)
			}
		})
	}
}

// BenchmarkReaderLifecycle isolates the per-goroutine lifecycle overhead
// the ReaderPool exists to remove: acquiring and releasing a usable
// reader, with no critical section in between. This is the cost an
// ephemeral goroutine pays before doing any work.
func BenchmarkReaderLifecycle(b *testing.B) {
	// The scenario is a server with many short-lived goroutines, so run
	// well more workers than processors regardless of -cpu.
	b.Run("register-unregister", func(b *testing.B) {
		r := prcu.NewTreeRCU(prcu.Options{})
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rd, err := r.Register()
				if err != nil {
					b.Fatal(err)
				}
				rd.Unregister()
			}
		})
	})
	b.Run("pool-get-put", func(b *testing.B) {
		pool := prcu.NewReaderPool(prcu.NewTreeRCU(prcu.Options{}))
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				pool.Put(pool.Get())
			}
		})
	})
}

// BenchmarkEphemeralReaders compares the two ways an ephemeral goroutine
// can run a read-side critical section: registering a fresh reader per
// section versus borrowing from a ReaderPool. Tree RCU has the cheapest
// read side, so its numbers isolate the lifecycle overhead itself; D-PRCU
// shows the same comparison with a costlier Enter/Exit mixed in.
func BenchmarkEphemeralReaders(b *testing.B) {
	for _, f := range []prcu.Flavor{prcu.FlavorTree, prcu.FlavorD} {
		b.Run(string(f)+"/register-per-section", func(b *testing.B) {
			r := prcu.MustNew(f, prcu.Options{})
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rd, err := r.Register()
					if err != nil {
						b.Fatal(err)
					}
					rd.Enter(1)
					rd.Exit(1)
					rd.Unregister()
				}
			})
		})
		b.Run(string(f)+"/pool", func(b *testing.B) {
			r := prcu.MustNew(f, prcu.Options{})
			pool := prcu.NewReaderPool(r)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rd := pool.Get()
					rd.Enter(1)
					rd.Exit(1)
					pool.Put(rd)
				}
			})
		})
	}
}

// TestReaderPoolCloseReleasesSlots checks the deterministic shutdown
// path: Close drains the cache and unregisters every cached reader
// synchronously, without waiting for the GC finalizer safety net.
func TestReaderPoolCloseReleasesSlots(t *testing.T) {
	r := prcu.NewD(prcu.Options{})
	pool := prcu.NewReaderPool(r)
	for i := 0; i < 8; i++ {
		rd := pool.Get()
		rd.Enter(prcu.Value(i))
		rd.Exit(prcu.Value(i))
		pool.Put(rd)
	}
	pool.Close()
	// Under -race the runtime intentionally drops a fraction of sync.Pool
	// items at Put, so Close cannot reach them synchronously; they fall to
	// the finalizer safety net. Keep collecting until it has run.
	deadline := time.Now().Add(20 * time.Second)
	for liveReaders(t, r) != 0 {
		if !raceEnabled {
			t.Fatalf("LiveReaders = %d after Close, want 0", liveReaders(t, r))
		}
		if time.Now().After(deadline) {
			t.Fatalf("LiveReaders still %d after Close + repeated GC", liveReaders(t, r))
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	expectPanic(t, "Get after Close", func() { pool.Get() })
	// Idempotent.
	pool.Close()
}

// TestReaderPoolPutAfterCloseReleases checks a handle still out when
// Close runs: its Put must release the slot immediately rather than
// repopulate a closed pool.
func TestReaderPoolPutAfterCloseReleases(t *testing.T) {
	r := prcu.NewEER(prcu.Options{})
	pool := prcu.NewReaderPool(r)
	rd := pool.Get()
	pool.Close()
	if n := liveReaders(t, r); n != 1 {
		t.Fatalf("LiveReaders = %d with one handle out, want 1", n)
	}
	pool.Put(rd)
	if n := liveReaders(t, r); n != 0 {
		t.Fatalf("LiveReaders = %d after Put on a closed pool, want 0", n)
	}
}

// TestReaderPoolDoPanicSafety checks the pooled handle's Do: a panic in
// the callback exits the critical section (so grace periods cannot
// wedge) and leaves the handle usable.
func TestReaderPoolDoPanicSafety(t *testing.T) {
	r := prcu.NewDEER(prcu.Options{})
	pool := prcu.NewReaderPool(r)
	rd := pool.Get()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the user panic to propagate")
			}
		}()
		rd.Do(5, func() { panic("user bug") })
	}()
	done := make(chan struct{})
	go func() {
		r.WaitForReaders(prcu.All())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitForReaders stuck: pooled Do leaked an open critical section")
	}
	ran := false
	rd.Do(6, func() { ran = true })
	if !ran {
		t.Fatal("Do did not run after a prior panic")
	}
	pool.Put(rd)
}

// TestReaderPoolCloseDuringChurn races Close against concurrent
// Critical borrowers: the only defined panic is Get-after-Close, a
// late Put is a no-op that releases its slot, and every registered
// reader is eventually released.
func TestReaderPoolCloseDuringChurn(t *testing.T) {
	r := prcu.NewD(prcu.Options{})
	pool := prcu.NewReaderPool(r)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							s, ok := p.(string)
							if !ok || !strings.Contains(s, "Get after Close") {
								panic(p)
							}
						}
					}()
					pool.Critical(prcu.Value(g*64+i%64), func() {})
				}()
			}
		}(g)
	}

	time.Sleep(10 * time.Millisecond)
	pool.Close()
	close(stop)
	wg.Wait()

	// Every slot drains: cached handles by Close's drain (or a borrower's
	// post-Close Put), anything sync.Pool hid from both by the finalizer.
	deadline := time.Now().Add(20 * time.Second)
	for liveReaders(t, r) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveReaders still %d after Close during churn", liveReaders(t, r))
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}
