package reclaim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/core"
)

// These tests hold the single-shard, immediate-flush Reclaimer — the
// plain call_rcu configuration, asynchronous callbacks resolved one
// flush at a time — to the asynchronous-callback contract: callbacks run
// only after a covering grace period, Barrier and Close drain, and a
// bounded shutdown accounts for every callback it abandons.

func newCallRCU(eng core.RCU) *Reclaimer {
	return New(eng, Config{Shards: 1, FlushDelay: -1})
}

// TestAsyncRunsCallbacks: every deferred callback has run by Barrier.
func TestAsyncRunsCallbacks(t *testing.T) {
	r := newCallRCU(core.NewTimeRCU(nil))
	defer r.Close()
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		r.Defer(core.All(), 0, func(error) { ran.Add(1) })
	}
	r.Barrier()
	if got := ran.Load(); got != 100 {
		t.Fatalf("ran %d callbacks after Barrier, want 100", got)
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending = %d after Barrier, want 0", r.Pending())
	}
}

// TestAsyncCallbackWaitsForGracePeriod: a callback is held while a
// reader its predicate covers is inside a critical section.
func TestAsyncCallbackWaitsForGracePeriod(t *testing.T) {
	eng := core.NewEER(nil)
	r := newCallRCU(eng)
	defer r.Close()
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(7)
	var ran atomic.Bool
	r.Retire(nil, core.Singleton(7), 0, func(any) { ran.Store(true) })
	// The callback must not run while the covered critical section is open.
	time.Sleep(30 * time.Millisecond)
	if ran.Load() {
		rd.Exit(7)
		t.Fatal("callback ran before the covered reader exited")
	}
	rd.Exit(7)
	r.Barrier()
	if !ran.Load() {
		t.Fatal("callback did not run after the grace period")
	}
	rd.Unregister()
}

// TestAsyncCallAfterClosePanics: a Defer after Close panics, like a
// Retire after Close.
func TestAsyncCallAfterClosePanics(t *testing.T) {
	r := newCallRCU(core.NewDistRCU())
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Defer after Close must panic")
		}
	}()
	r.Defer(core.All(), 0, func(error) {})
}

// TestAsyncConcurrentCallers: callbacks deferred from many goroutines
// all run by the next Barrier.
func TestAsyncConcurrentCallers(t *testing.T) {
	r := newCallRCU(core.NewTimeRCU(nil))
	defer r.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Defer(core.All(), 0, func(error) { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	r.Barrier()
	if got := ran.Load(); got != 400 {
		t.Fatalf("ran %d callbacks, want 400", got)
	}
}

// TestAsyncUncoveredReaderDoesNotBlockCallback: a retirement waits only for
// readers its predicate covers.
func TestAsyncUncoveredReaderDoesNotBlockCallback(t *testing.T) {
	eng := core.NewD(1024)
	r := newCallRCU(eng)
	defer r.Close()
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(1000)
	defer func() {
		rd.Exit(1000)
		rd.Unregister()
	}()
	done := make(chan struct{})
	r.Retire(nil, core.Singleton(5), 0, func(any) { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callback blocked behind an uncovered critical section")
	}
}

// TestAsyncCloseDrains: Close runs every queued callback and is
// idempotent.
func TestAsyncCloseDrains(t *testing.T) {
	r := newCallRCU(core.NewDistRCU())
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		r.Retire(nil, core.All(), 0, func(any) { ran.Add(1) })
	}
	r.Close()
	if got := ran.Load(); got != 50 {
		t.Fatalf("Close ran %d callbacks, want 50", got)
	}
	r.Close()
}

// TestAsyncCloseCtxBoundedOnWedgedEngine is the shutdown-hardening
// acceptance: a reader parked in a covered critical section would make a
// plain Close hang forever; CloseCtx must give up at its deadline,
// cancel the in-flight wait, drop the plain callback (it must not run
// after an incomplete grace period), and stop the worker.
func TestAsyncCloseCtxBoundedOnWedgedEngine(t *testing.T) {
	eng := core.NewEER(nil)
	r := newCallRCU(eng)
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(7)
	var ran atomic.Bool
	r.Retire(nil, core.Singleton(7), 0, func(any) { ran.Store(true) })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := r.CloseCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseCtx on a wedged engine returned %v, want DeadlineExceeded", err)
	}
	if ran.Load() {
		t.Fatal("plain callback ran although its grace period never completed")
	}
	if got := r.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	// Idempotent after a bounded shutdown too: the worker is gone, the
	// call returns immediately.
	if err := r.CloseCtx(context.Background()); err != nil {
		t.Fatalf("second CloseCtx returned %v, want nil", err)
	}
	r.Close()
	rd.Exit(7)
	rd.Unregister()
}

// TestAsyncConcurrentClose: racing Close calls all return after one
// complete drain.
func TestAsyncConcurrentClose(t *testing.T) {
	r := newCallRCU(core.NewDistRCU())
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		r.Retire(nil, core.All(), 0, func(any) { ran.Add(1) })
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); r.Close() }()
	}
	wg.Wait()
	if got := ran.Load(); got != 20 {
		t.Fatalf("concurrent Close ran %d callbacks, want 20", got)
	}
}

// TestAsyncBarrierRacingCalls races Barrier against a stream of
// concurrent retirements: every Barrier must return (no lost idle
// wakeups), and with the retirers stopped a final Barrier leaves nothing
// pending.
func TestAsyncBarrierRacingCalls(t *testing.T) {
	r := newCallRCU(core.NewTimeRCU(nil))
	defer r.Close()
	var ran atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Retire(nil, core.All(), 0, func(any) { ran.Add(1) })
			}
		}()
	}
	for i := 0; i < 20; i++ {
		before := ran.Load()
		r.Barrier()
		if got := ran.Load(); got < before {
			t.Fatalf("ran went backwards: %d -> %d", before, got)
		}
	}
	close(stop)
	wg.Wait()
	r.Barrier()
	if p := r.Pending(); p != 0 {
		t.Fatalf("Pending = %d after final Barrier with retirers stopped, want 0", p)
	}
}

// TestAsyncCloseCtxExpiredContext: a CloseCtx whose context is
// already expired must still cancel the outstanding waits, account every
// plain callback as dropped exactly once, and leave Pending at zero.
func TestAsyncCloseCtxExpiredContext(t *testing.T) {
	eng := core.NewEER(nil)
	r := newCallRCU(eng)
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(3) // wedge predicates covering 3
	const n = 10
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		r.Retire(nil, core.Singleton(3), 0, func(any) { ran.Add(1) })
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before CloseCtx even starts
	if err := r.CloseCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CloseCtx with expired context returned %v, want Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d callbacks ran although no grace period completed", got)
	}
	if got := r.Dropped(); got != n {
		t.Fatalf("Dropped = %d, want %d (each plain callback dropped exactly once)", got, n)
	}
	if p := r.Pending(); p != 0 {
		t.Fatalf("Pending = %d after CloseCtx, want 0", p)
	}
	rd.Exit(3)
	rd.Unregister()
}
