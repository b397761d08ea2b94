package reclaim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/chaos"
	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// countingRCU counts the grace periods an engine actually executes —
// the denominator of every batching assertion.
type countingRCU struct {
	core.RCU
	waits atomic.Uint64
}

func (c *countingRCU) WaitForReaders(p core.Predicate) {
	c.waits.Add(1)
	c.RCU.WaitForReaders(p)
}

func (c *countingRCU) WaitForReadersCtx(ctx context.Context, p core.Predicate) error {
	c.waits.Add(1)
	return c.RCU.WaitForReadersCtx(ctx, p)
}

// TestReclaimerBatchingSavesGracePeriods is the headline acceptance: a
// retirement storm over a narrow key range must cost at least 2x fewer
// grace periods than one-wait-per-callback (it lands orders of
// magnitude fewer: each accumulated batch coalesces to a handful of
// merged intervals).
func TestReclaimerBatchingSavesGracePeriods(t *testing.T) {
	eng := &countingRCU{RCU: core.NewTimeRCU(nil)}
	r := New(eng, Config{Shards: 1, FlushDelay: 20 * time.Millisecond})
	const n = 1000
	var freed atomic.Int64
	for i := 0; i < n; i++ {
		r.Retire(nil, core.Singleton(core.Value(i%32)), 64, func(any) { freed.Add(1) })
	}
	r.Barrier()
	if got := freed.Load(); got != n {
		t.Fatalf("freed %d, want %d", got, n)
	}
	waits := eng.waits.Load()
	if waits == 0 {
		t.Fatal("no grace periods at all")
	}
	if waits*2 > n {
		t.Fatalf("batching too weak: %d grace periods for %d retirements (want <= %d)",
			waits, n, n/2)
	}
	if g := r.Graces(); g != waits {
		t.Fatalf("Graces() = %d, engine saw %d waits", g, waits)
	}
	r.Close()
	t.Logf("%d retirements -> %d grace periods", n, waits)
}

// TestReclaimerBacklogNeverExceedsWatermark is the overload acceptance:
// with grace periods wedged slow by chaos injection and PolicyBlock,
// the backlog — sampled continuously through the obs gauges — must
// never exceed MaxPending, and callers must observe backpressure.
func TestReclaimerBacklogNeverExceedsWatermark(t *testing.T) {
	const maxPending = 64
	met := obs.New()
	eng := chaos.Wrap(core.NewTimeRCU(nil), chaos.Config{
		Seed:        42,
		WaitHold:    1.0,
		WaitHoldDur: 10 * time.Millisecond,
	})
	r := New(eng, Config{
		Shards:     2,
		MaxPending: maxPending,
		Policy:     PolicyBlock,
		FlushDelay: -1,
		Metrics:    met,
	})

	stop := make(chan struct{})
	var overshoot atomic.Int64
	var sampled atomic.Int64
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := met.Snapshot()
			sampled.Add(1)
			if s.ReclaimPending > maxPending {
				overshoot.Store(s.ReclaimPending)
				return
			}
			if p := r.Pending(); p > maxPending {
				overshoot.Store(int64(p))
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const retirers, each = 8, 100
	var freed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < retirers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Retire(nil, core.Singleton(core.Value(g*each+i)), 128,
					func(any) { freed.Add(1) })
			}
		}(g)
	}
	wg.Wait()
	r.Barrier()
	close(stop)
	<-sampler
	if ov := overshoot.Load(); ov != 0 {
		t.Fatalf("backlog reached %d, hard watermark is %d", ov, maxPending)
	}
	if got := freed.Load(); got != retirers*each {
		t.Fatalf("freed %d, want %d", got, retirers*each)
	}
	if sampled.Load() == 0 {
		t.Fatal("sampler never ran")
	}
	if bp := r.BackpressureWaits(); bp == 0 {
		t.Fatal("no caller ever observed backpressure although the engine was wedged slow")
	}
	s := met.Snapshot()
	if s.ReclaimBackpressure == 0 {
		t.Fatal("obs never recorded the backpressure overloads")
	}
	if s.ReclaimPending != 0 || s.ReclaimBytes != 0 {
		t.Fatalf("gauges not drained: pending %d bytes %d", s.ReclaimPending, s.ReclaimBytes)
	}
	if s.ReclaimFreed != retirers*each {
		t.Fatalf("obs freed = %d, want %d", s.ReclaimFreed, retirers*each)
	}
	holds := eng.Counts().WaitHolds
	if holds == 0 {
		t.Fatal("chaos injected no wait holds; the test exercised nothing")
	}
	r.Close()
	t.Logf("backpressure waits %d, expedited flushes %d, chaos holds %d",
		r.BackpressureWaits(), s.ReclaimExpedited, holds)
}

// TestReclaimerPolicyInline: at the hard watermark, PolicyInline callers
// degrade to a synchronous grace period instead of blocking on the
// backlog — the backlog stays bounded and every callback still frees.
func TestReclaimerPolicyInline(t *testing.T) {
	met := obs.New()
	eng := chaos.Wrap(core.NewTimeRCU(nil), chaos.Config{
		Seed:        7,
		WaitHold:    1.0,
		WaitHoldDur: 5 * time.Millisecond,
	})
	const maxPending = 8
	r := New(eng, Config{
		Shards:     1,
		MaxPending: maxPending,
		Policy:     PolicyInline,
		FlushDelay: -1,
		Metrics:    met,
	})
	const n = 64
	var freed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				r.Retire(nil, core.Singleton(core.Value(i)), 0, func(any) { freed.Add(1) })
				if p := r.Pending(); p > maxPending {
					t.Errorf("backlog %d over watermark %d", p, maxPending)
				}
			}
		}(g)
	}
	wg.Wait()
	r.Barrier()
	if got := freed.Load(); got != n {
		t.Fatalf("freed %d, want %d", got, n)
	}
	if r.InlineWaits() == 0 {
		t.Fatal("no retirement ever degraded to an inline wait")
	}
	if s := met.Snapshot(); s.ReclaimInline != r.InlineWaits() {
		t.Fatalf("obs inline = %d, reclaimer counted %d", s.ReclaimInline, r.InlineWaits())
	}
	r.Close()
}

// TestReclaimerOversizeRetirementInline: a single retirement declaring
// more than MaxBytes can never fit the backlog; it must resolve inline
// under any policy rather than deadlock against the watermark.
func TestReclaimerOversizeRetirementInline(t *testing.T) {
	r := New(core.NewTimeRCU(nil), Config{
		Shards:   1,
		MaxBytes: 1 << 10,
		Policy:   PolicyBlock,
	})
	defer r.Close()
	done := make(chan struct{})
	r.Retire(nil, core.All(), 1<<20, func(any) { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("oversize retirement deadlocked instead of resolving inline")
	}
	if r.InlineWaits() != 1 {
		t.Fatalf("InlineWaits = %d, want 1", r.InlineWaits())
	}
	if p := r.Pending(); p != 0 {
		t.Fatalf("Pending = %d after inline resolution, want 0", p)
	}
}

// TestReclaimerByteAccounting: PendingBytes tracks declared bytes while
// queued and returns to zero once resolved.
func TestReclaimerByteAccounting(t *testing.T) {
	met := obs.New()
	r := New(core.NewTimeRCU(nil), Config{
		Shards:     1,
		FlushDelay: time.Hour, // park the batch so the gauge is observable
		Metrics:    met,
	})
	defer r.Close()
	for i := 0; i < 10; i++ {
		r.Retire(nil, core.Singleton(core.Value(i)), 100, nil)
	}
	if got := r.PendingBytes(); got != 1000 {
		t.Fatalf("PendingBytes = %d, want 1000", got)
	}
	if s := met.Snapshot(); s.ReclaimBytes != 1000 {
		t.Fatalf("obs bytes gauge = %d, want 1000", s.ReclaimBytes)
	}
	r.Barrier()
	if got := r.PendingBytes(); got != 0 {
		t.Fatalf("PendingBytes = %d after Barrier, want 0", got)
	}
}

// TestReclaimerFlushCutsDelay: with an hour-long accumulation window,
// nothing resolves on its own; Flush must cut the window and start the
// batch immediately.
func TestReclaimerFlushCutsDelay(t *testing.T) {
	r := New(core.NewTimeRCU(nil), Config{Shards: 1, FlushDelay: time.Hour})
	defer r.Close()
	done := make(chan struct{})
	r.Retire(nil, core.Singleton(3), 0, func(any) { close(done) })
	select {
	case <-done:
		t.Fatal("callback resolved before Flush despite hour-long accumulation window")
	case <-time.After(50 * time.Millisecond):
	}
	r.Flush()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush did not cut the accumulation window")
	}
}

// TestReclaimerSoftWatermarkExpedites: crossing half the hard watermark
// must expedite the flush on its own — no Flush call, no waiting out an
// hour-long window.
func TestReclaimerSoftWatermarkExpedites(t *testing.T) {
	met := obs.New()
	r := New(core.NewTimeRCU(nil), Config{
		Shards:     1,
		MaxPending: 10,
		FlushDelay: time.Hour,
		Metrics:    met,
	})
	defer r.Close()
	var freed atomic.Int64
	for i := 0; i < 5; i++ { // 5th submission reaches soft watermark (2*5 >= 10)
		r.Retire(nil, core.Singleton(core.Value(i)), 0, func(any) { freed.Add(1) })
	}
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("soft watermark never expedited the flush (freed %d/5)", freed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if s := met.Snapshot(); s.ReclaimExpedited == 0 {
		t.Fatal("obs recorded no expedited flush")
	}
}

// TestReclaimerDeferDeliversShutdownError: error-aware Defer callbacks
// take delivery of the abandonment error at a bounded shutdown instead
// of being dropped — the citrus deferred-unlink contract.
func TestReclaimerDeferDeliversShutdownError(t *testing.T) {
	eng := core.NewEER(nil)
	r := New(eng, Config{Shards: 1, FlushDelay: -1})
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(5) // wedge
	errs := make(chan error, 1)
	r.Defer(core.Singleton(5), 64, func(e error) { errs <- e })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := r.CloseCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseCtx = %v, want DeadlineExceeded", err)
	}
	select {
	case e := <-errs:
		if e == nil {
			t.Fatal("Defer callback got nil although its grace period never completed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Defer callback never delivered")
	}
	if d := r.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d; error-aware callbacks are never dropped", d)
	}
	rd.Exit(5)
	rd.Unregister()
}

// TestReclaimerMultiShardConcurrent exercises the sharded path end to
// end: many goroutines, all shards, metrics ledger must balance.
func TestReclaimerMultiShardConcurrent(t *testing.T) {
	met := obs.New()
	r := New(core.NewTimeRCU(nil), Config{Shards: 4, Metrics: met})
	const goroutines, each = 16, 200
	var freed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Retire(nil, core.Interval(core.Value(i), core.Value(i+10)), 32,
					func(any) { freed.Add(1) })
			}
		}(g)
	}
	wg.Wait()
	r.Barrier()
	const n = goroutines * each
	if got := freed.Load(); got != n {
		t.Fatalf("freed %d, want %d", got, n)
	}
	s := met.Snapshot()
	if s.ReclaimRetired != n || s.ReclaimFreed != n || s.ReclaimDropped != 0 {
		t.Fatalf("ledger: retired %d freed %d dropped %d, want %d/%d/0",
			s.ReclaimRetired, s.ReclaimFreed, s.ReclaimDropped, n, n)
	}
	if s.ReclaimPending != 0 || s.ReclaimBytes != 0 {
		t.Fatalf("gauges not drained: %d cbs / %d bytes", s.ReclaimPending, s.ReclaimBytes)
	}
	if s.ReclaimGraces == 0 || s.ReclaimGraces >= n {
		t.Fatalf("graces = %d for %d retirements; batching should land well below", s.ReclaimGraces, n)
	}
	r.Close()
}

// TestReclaimerRetireAfterClosePanics: submissions after Close panic.
func TestReclaimerRetireAfterClosePanics(t *testing.T) {
	r := New(core.NewDistRCU(), Config{})
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Retire after Close must panic")
		}
	}()
	r.Retire(nil, core.All(), 0, nil)
}

// TestReclaimerBlockedRetireSurvivesClose: a caller parked at the hard
// watermark when Close lands must not enqueue into stopped workers; its
// retirement resolves inline and Close still drains cleanly.
func TestReclaimerBlockedRetireSurvivesClose(t *testing.T) {
	eng := chaos.Wrap(core.NewTimeRCU(nil), chaos.Config{
		Seed:        3,
		WaitHold:    1.0,
		WaitHoldDur: 20 * time.Millisecond,
	})
	r := New(eng, Config{Shards: 1, MaxPending: 2, Policy: PolicyBlock, FlushDelay: -1})
	var freed, submitted atomic.Int64
	// retire returns false once the reclaimer is closed (Retire then
	// panics by contract; a racing caller treats that as its stop signal).
	retire := func(v core.Value) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r.Retire(nil, core.Singleton(v), 0, func(any) { freed.Add(1) })
		return true
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if !retire(core.Value(i)) {
					return
				}
				submitted.Add(1)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let some callers reach the watermark
	r.Close()
	wg.Wait()
	// Every accepted retirement resolves exactly once: pre-close ones by a
	// clean drain, parked-at-watermark ones by the inline fallback. The
	// only permitted shortfall is a caller whose Retire never started.
	if got, want := freed.Load(), submitted.Load(); got < want {
		t.Fatalf("freed %d of %d accepted retirements", got, want)
	}
	if p := r.Pending(); p != 0 {
		t.Fatalf("Pending = %d after Close, want 0", p)
	}
}

// TestEnqueueAfterCloseResolvesOnCaller pins the close protocol's one
// interleaving that no worker can serve: a retirement that reserved
// capacity before Close but reaches its shard after the worker concluded
// the drain. It must still resolve exactly once — on the caller — and
// give its capacity back.
func TestEnqueueAfterCloseResolvesOnCaller(t *testing.T) {
	r := New(core.NewTimeRCU(nil), Config{Shards: 1, MaxPending: 4})
	freed := 0
	cb := &callback{pred: core.All(), bytes: 8, free: func(any) { freed++ }}
	soft, ok := r.admit(cb)
	if !ok {
		t.Fatal("admission refused an empty backlog")
	}
	r.Close()
	if p := r.Pending(); p != 1 {
		t.Fatalf("Pending = %d with one reservation outstanding, want 1", p)
	}
	r.shards[0].enqueue(cb, soft)
	if freed != 1 {
		t.Fatalf("callback ran %d times, want 1", freed)
	}
	if p, b := r.Pending(), r.PendingBytes(); p != 0 || b != 0 {
		t.Fatalf("Pending = %d, PendingBytes = %d after the late resolve, want 0, 0", p, b)
	}
	if s := r.Stats(); s.ReclaimFreed != 1 || s.ReclaimPending != 0 {
		t.Fatalf("gauges after the late resolve: freed %d pending %d, want 1, 0", s.ReclaimFreed, s.ReclaimPending)
	}
}

// TestOldestAgeWithLazyStamps drives the age gauge on a manual clock:
// only the member that opens a queue is stamped, the gauge reads that
// member's age whether its batch is queued or in flight, it never steps
// back while that member is the oldest, and it returns to 0 on an empty
// backlog.
func TestOldestAgeWithLazyStamps(t *testing.T) {
	eng := core.NewTimeRCU(nil)
	r := New(eng, Config{Shards: 1, FlushDelay: time.Hour})
	defer r.Close()
	clock := tsc.NewManual(1000)
	r.clock = clock
	if age := r.OldestAge(); age != 0 {
		t.Fatalf("empty backlog age = %v, want 0", age)
	}

	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(7)
	r.Retire(nil, core.Singleton(7), 1, nil) // opens the queue at 1000
	clock.Advance(50)
	r.Retire(nil, core.Singleton(7), 1, nil) // enqueued at 1050, unstamped
	s := r.shards[0]
	s.mu.Lock()
	first, second := s.queue[0].atNs, s.queue[1].atNs
	s.mu.Unlock()
	if first != 1000 || second != 0 {
		t.Fatalf("queue stamps = %d, %d; want 1000 for the opener and none (0) after it", first, second)
	}
	clock.Advance(30)
	if age := r.OldestAge(); age != 80 {
		t.Fatalf("age with the opener queued = %v, want 80ns (the first-enqueued member's)", age)
	}

	// Move the batch in flight and open a younger queue behind it: the
	// gauge must keep reading the in-flight opener.
	r.Flush()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		taken := s.inFlight == 2
		s.mu.Unlock()
		if taken {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the batch")
		}
	}
	last := r.OldestAge()
	for i := 0; i < 3; i++ {
		clock.Advance(10)
		r.Retire(nil, core.Singleton(7), 1, nil)
		age := r.OldestAge()
		if age < last {
			t.Fatalf("age stepped back from %v to %v while the same callback was oldest", last, age)
		}
		last = age
	}
	if last != 110 {
		t.Fatalf("age with the opener in flight = %v, want 110ns", last)
	}

	rd.Exit(7)
	rd.Unregister()
	r.Barrier()
	if age := r.OldestAge(); age != 0 {
		t.Fatalf("drained backlog age = %v, want 0", age)
	}
}

// TestRetireSpansWhenRecorderArmsMidQueue arms the flight recorder after
// part of a batch was enqueued unstamped: every retire span must still
// start at a real instant — no earlier than the first enqueue, no later
// than its end — because an unstamped member takes its batch's oldest
// stamp.
func TestRetireSpansWhenRecorderArmsMidQueue(t *testing.T) {
	met := obs.New()
	eng := core.NewTimeRCU(nil)
	r := New(eng, Config{Shards: 1, FlushDelay: time.Hour, Metrics: met})
	defer r.Close()
	time.Sleep(time.Millisecond) // put the two clocks' origins well behind t0
	t0 := met.FlightNow()
	const before, after = 5, 3
	for i := 0; i < before; i++ {
		r.Retire(nil, core.Singleton(1), 1, nil)
	}
	met.EnableFlightRecorder(64)
	for i := 0; i < after; i++ {
		r.Retire(nil, core.Singleton(1), 1, nil)
	}
	r.Barrier()
	retires := 0
	for _, sp := range met.FlightSnapshot() {
		if sp.Kind != obs.SpanRetire {
			continue
		}
		retires++
		if sp.StartNs < t0 || sp.StartNs > sp.EndNs {
			t.Errorf("retire span [%d, %d]: want t0=%d <= start <= end", sp.StartNs, sp.EndNs, t0)
		}
	}
	if retires != before+after {
		t.Fatalf("%d retire spans, want %d", retires, before+after)
	}
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want message containing %q", r, want)
		}
	}()
	fn()
}

func TestConfigValidation(t *testing.T) {
	eng := core.NewTimeRCU(nil)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative MaxPending", Config{MaxPending: -1}, "negative MaxPending"},
		{"negative MaxBytes", Config{MaxBytes: -1}, "negative MaxBytes"},
		{"negative SoftPending", Config{SoftPending: -5}, "negative SoftPending"},
		{"negative SoftBytes", Config{SoftBytes: -5}, "negative SoftBytes"},
		{"inverted pending", Config{MaxPending: 10, SoftPending: 11}, "SoftPending exceeds MaxPending"},
		{"inverted bytes", Config{MaxBytes: 10, SoftBytes: 11}, "SoftBytes exceeds MaxBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, tc.want, func() { New(eng, tc.cfg) })
		})
	}
	// Soft marks without a hard bound are legal (expedite-only config),
	// as is soft == hard (expedite exactly at the limit).
	for _, cfg := range []Config{
		{SoftPending: 8},
		{SoftBytes: 1 << 20},
		{MaxPending: 8, SoftPending: 8},
		{MaxBytes: 100, SoftBytes: 100},
	} {
		r := New(eng, cfg)
		r.Close()
	}
}

// TestConcurrentRetireFlushExactlyOnce races retirers against a flusher
// on a bounded two-shard reclaimer while a reader holds covered sections
// open, so grace periods genuinely block mid-flush: the backlog must stay
// under its watermark, and every accepted retirement must run its free
// callback exactly once.
func TestConcurrentRetireFlushExactlyOnce(t *testing.T) {
	const maxPending = 64
	eng := core.NewTimeRCU(nil)
	r := New(eng, Config{Shards: 2, MaxPending: maxPending, FlushDelay: 50 * time.Microsecond})
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var retired atomic.Int64
	runs := make([]atomic.Int32, 4*4096)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4096 && !stop.Load(); i++ {
				id := g*4096 + i
				retired.Add(1)
				r.Retire(nil, core.Singleton(core.Value(id%16)), 16, func(any) { runs[id].Add(1) })
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			rd.Enter(core.Value(i % 16))
			r.Flush()
			if p := r.Pending(); p > maxPending {
				t.Errorf("backlog %d exceeded the watermark %d", p, maxPending)
				stop.Store(true)
			}
			rd.Exit(core.Value(i % 16))
		}
	}()
	time.AfterFunc(200*time.Millisecond, func() { stop.Store(true) })
	wg.Wait()
	rd.Unregister()
	r.Barrier()
	if p := r.Pending(); p != 0 {
		t.Fatalf("backlog %d after Barrier, want 0", p)
	}
	r.Close()
	var ran int64
	for id := range runs {
		switch n := runs[id].Load(); n {
		case 0:
		case 1:
			ran++
		default:
			t.Fatalf("callback %d ran %d times", id, n)
		}
	}
	if ran != retired.Load() {
		t.Fatalf("%d callbacks ran for %d retirements", ran, retired.Load())
	}
}

// TestOldestAgeGauge checks the data-age estimate: zero on an empty
// backlog, growing while a callback is stuck behind a wedged grace
// period, and zero again once resolved.
func TestOldestAgeGauge(t *testing.T) {
	eng := core.NewTimeRCU(nil)
	r := New(eng, Config{Shards: 1, FlushDelay: -1})
	defer r.Close()
	if age := r.OldestAge(); age != 0 {
		t.Fatalf("empty backlog age = %v, want 0", age)
	}

	// Hold a covered critical section open so the flush wedges.
	rd, err := eng.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(7)
	freed := make(chan struct{})
	r.Retire(nil, core.Singleton(core.Value(7)), 1, func(any) { close(freed) })
	r.Flush()

	// The callback is now queued or in flight behind the open reader;
	// its age must become visible and grow.
	deadline := time.After(5 * time.Second)
	for r.OldestAge() == 0 {
		select {
		case <-deadline:
			t.Fatal("age gauge never saw the pending callback")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	a1 := r.OldestAge()
	time.Sleep(5 * time.Millisecond)
	a2 := r.OldestAge()
	if a2 <= a1 {
		t.Fatalf("age did not grow while wedged: %v then %v", a1, a2)
	}

	rd.Exit(7)
	rd.Unregister()
	<-freed
	r.Barrier()
	if age := r.OldestAge(); age != 0 {
		t.Fatalf("drained backlog age = %v, want 0", age)
	}
}
