package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// parkReader registers a reader on r, enters a critical section on v,
// and parks it until the returned release function is called (which
// also exits and unregisters, synchronously).
func parkReader(t *testing.T, r RCU, v Value) (release func()) {
	t.Helper()
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	go_ := make(chan struct{})
	done := make(chan struct{})
	go func() {
		rd.Enter(v)
		close(entered)
		<-go_
		rd.Exit(v)
		rd.Unregister()
		close(done)
	}()
	<-entered
	return func() { close(go_); <-done }
}

// TestWaitCtxDeadlineOnParkedReader is the acceptance scenario run
// directly against every engine: a reader parked inside a covered
// critical section makes the grace period unachievable, so a
// deadline-bounded wait must give up with context.DeadlineExceeded —
// and promptly, within twice the deadline, because cancellation is
// polled on every scheduler-yield step of the wait loop.
func TestWaitCtxDeadlineOnParkedReader(t *testing.T) {
	deadline := scaleDur(200*time.Millisecond, 100*time.Millisecond)
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			release := parkReader(t, r, 5)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			t0 := time.Now()
			err := r.WaitForReadersCtx(ctx, Singleton(5))
			elapsed := time.Since(t0)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("wait returned %v, want DeadlineExceeded", err)
			}
			if elapsed > 2*deadline {
				t.Errorf("cancelled wait took %v, want <= %v", elapsed, 2*deadline)
			}
			release()
			// With the section closed the engine must be fully usable: the
			// abandoned wait left no residue that wedges the next one.
			done := make(chan struct{})
			go func() {
				r.WaitForReaders(Singleton(5))
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("wait after an abandoned ctx wait did not complete")
			}
		})
	}
}

// TestWaitCtxCancelMidWait covers explicit cancellation (rather than a
// deadline) landing while the wait is blocked.
func TestWaitCtxCancelMidWait(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			release := parkReader(t, r, 9)
			defer release()
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() { errc <- r.WaitForReadersCtx(ctx, Singleton(9)) }()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("wait returned %v, want Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled wait did not return")
			}
		})
	}
}

// TestWaitCtxPreExpired checks the fast-fail path: a dead context is
// reported before any scanning or waiting, even with a parked covered
// reader that would block the wait forever.
func TestWaitCtxPreExpired(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			release := parkReader(t, r, 5)
			defer release()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := r.WaitForReadersCtx(ctx, Singleton(5)); !errors.Is(err, context.Canceled) {
				t.Fatalf("wait with a dead context returned %v, want Canceled", err)
			}
		})
	}
}

// TestWaitCtxCleanCompletion checks the nil-error path under churn: an
// unexpiring context must change nothing about wait semantics.
func TestWaitCtxCleanCompletion(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
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
			iters := scale(60, 20)
			for i := 0; i < iters; i++ {
				if err := r.WaitForReadersCtx(context.Background(), Singleton(42)); err != nil {
					t.Fatalf("wait %d failed under a live context: %v", i, err)
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestWaitCtxExcludedPredicateCompletes pins the predicate-aware half
// of the acceptance scenario: the parked reader's value is outside the
// predicate, so the bounded wait completes with a nil error instead of
// timing out on it.
func TestWaitCtxExcludedPredicateCompletes(t *testing.T) {
	prcuEngines := map[string]func() RCU{
		"EER":  func() RCU { return NewEER(nil) },
		"D":    func() RCU { return NewD(1024) },
		"DEER": func() RCU { return NewDEER(16, nil) },
	}
	for name, mk := range prcuEngines {
		t.Run(name, func(t *testing.T) {
			r := mk()
			release := parkReader(t, r, 1000) // no hash collision with 5 at 1024 buckets
			defer release()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := r.WaitForReadersCtx(ctx, Singleton(5)); err != nil {
				t.Fatalf("excluding-predicate wait returned %v, want nil", err)
			}
		})
	}
}

// stallCollector gathers watchdog reports for assertions.
type stallCollector struct {
	mu   sync.Mutex
	reps []StallReport
}

func (c *stallCollector) add(r StallReport) {
	c.mu.Lock()
	c.reps = append(c.reps, r)
	c.mu.Unlock()
}

func (c *stallCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reps)
}

func (c *stallCollector) last() StallReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reps[len(c.reps)-1]
}

// awaitReports polls until the collector holds at least n reports,
// advancing the manual clock by tick between polls (the stalled waiter
// only observes time through the injected clock).
func awaitReports(t *testing.T, c *stallCollector, clk *tsc.Manual, tick int64, n int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if c.count() >= n {
			return
		}
		if tick > 0 {
			clk.Advance(tick)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("watchdog reports = %d, want >= %d", c.count(), n)
}

// TestStallWatchdogManualClock drives the watchdog deterministically
// with a manual clock on every engine: a parked covered reader stalls
// the wait; once the injected clock passes the timeout the watchdog
// must fire, exactly once per rate-limit window however long the stall
// persists, and fire again when the window rolls over. The report names
// what the wait is blocked on: the parked reader's slot (behind an idle
// reader in slot 0) on the registry engines, and the counter node its
// value hashes to on the counter kernel.
func TestStallWatchdogManualClock(t *testing.T) {
	const (
		timeoutNs = 1_000
		windowNs  = 1_000_000
	)
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			clk := tsc.NewManual(0)
			var col stallCollector
			r.(StallCarrier).SetStallConfig(StallConfig{
				Timeout:   timeoutNs,
				RateLimit: windowNs,
				Clock:     clk,
				OnStall:   col.add,
			})
			idle, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Unregister()
			release := parkReader(t, r, 5)
			wantSlot := 1
			if d, ok := r.(*D); ok {
				wantSlot = int(d.tbl.Load().index(5))
			}
			waited := make(chan struct{})
			go func() {
				r.WaitForReaders(Singleton(5))
				close(waited)
			}()
			// Nudge the clock past the timeout until the waiter (whose
			// wait may start at any observed reading) reports. Total
			// advance stays far below one rate-limit window.
			awaitReports(t, &col, clk, 2*timeoutNs, 1)
			rep := col.last()
			if rep.Engine != r.Name() {
				t.Errorf("report engine %q, want %q", rep.Engine, r.Name())
			}
			if rep.Predicate != "singleton(5)" {
				t.Errorf("report predicate %q, want %q", rep.Predicate, "singleton(5)")
			}
			if rep.Elapsed < timeoutNs {
				t.Errorf("report elapsed %d, want >= %d", rep.Elapsed, timeoutNs)
			}
			if len(rep.Readers) != 1 || rep.Readers[0].Slot != wantSlot {
				t.Errorf("report readers = %+v, want the one blocker in slot %d", rep.Readers, wantSlot)
			}
			// Within the same rate-limit window the stall persists but no
			// further report may fire, no matter how many checks run.
			base := col.count()
			for i := 0; i < 20; i++ {
				clk.Advance(2 * timeoutNs)
				time.Sleep(time.Millisecond)
			}
			if got := col.count(); got != base {
				t.Errorf("reports within one rate-limit window: %d, want %d", got, base)
			}
			// Rolling past the window re-admits exactly one more report.
			clk.Advance(windowNs)
			awaitReports(t, &col, clk, 0, base+1)
			release()
			select {
			case <-waited:
			case <-time.After(10 * time.Second):
				t.Fatal("stalled wait did not return after the reader exited")
			}
		})
	}
}

// TestStallReportNamesSlotAndValue pins the diagnostic payload on the
// value-tracking engine, on its default (epoch) clock: the report must
// carry the offending reader's registry slot, its open value, and an open
// duration no shorter than the watchdog clock's advance since the wait
// ticked on finding the section open — on the watchdog's clock, not a
// count of epochs read as nanoseconds.
func TestStallReportNamesSlotAndValue(t *testing.T) {
	r := NewEER(nil)
	clk := &countingClock{}
	// Off zero, so that an age measured from no reading at all overshoots
	// Elapsed.
	clk.Advance(1 << 20)
	start := clk.Manual.Now()
	var col stallCollector
	r.SetStallConfig(StallConfig{
		Timeout:   1_000,
		RateLimit: time.Hour,
		Clock:     clk,
		OnStall:   col.add,
	})
	// Slot 0: a registered but quiescent reader. Slot 1: the offender.
	idle, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Unregister()
	release := parkReader(t, r, 77)
	waited := make(chan struct{})
	go func() {
		r.WaitForReaders(Singleton(77))
		close(waited)
	}()
	// The wait reads the watchdog clock as it begins and again right after
	// its tick, on finding the section open; the clock stands still until
	// both are done.
	for deadline := time.Now().Add(10 * time.Second); clk.reads.Load() < 2; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("wait never found the parked section open")
		}
	}
	blockedAt := clk.Manual.Now()
	awaitReports(t, &col, &clk.Manual, 2_000, 1)
	rep := col.last()
	if len(rep.Readers) != 1 {
		t.Fatalf("report names %d readers, want exactly the offender: %+v", len(rep.Readers), rep.Readers)
	}
	sr := rep.Readers[0]
	if sr.Slot != 1 {
		t.Errorf("stalled slot = %d, want 1", sr.Slot)
	}
	if !sr.HasValue || sr.Value != 77 {
		t.Errorf("stalled value = (%d, %v), want (77, true)", sr.Value, sr.HasValue)
	}
	// The wait began at clock reading start, so the report fired at
	// start+Elapsed.
	if open := time.Duration(start + int64(rep.Elapsed) - blockedAt); sr.OpenFor < open || sr.OpenFor > rep.Elapsed {
		t.Errorf("open duration %v, want in [%v, %v]: the clock's advance since the wait blocked", sr.OpenFor, open, rep.Elapsed)
	}
	release()
	<-waited
}

// TestStallWatchdogSelectivity checks the watchdog never cries wolf on
// the predicate-aware engines: a wait whose predicate excludes the
// parked reader's value completes without blocking, so no report fires
// even with the watchdog armed at an aggressive timeout.
func TestStallWatchdogSelectivity(t *testing.T) {
	prcuEngines := map[string]func() RCU{
		"EER":  func() RCU { return NewEER(nil) },
		"D":    func() RCU { return NewD(1024) },
		"DEER": func() RCU { return NewDEER(16, nil) },
	}
	for name, mk := range prcuEngines {
		t.Run(name, func(t *testing.T) {
			r := mk()
			clk := tsc.NewManual(0)
			var col stallCollector
			r.(StallCarrier).SetStallConfig(StallConfig{
				Timeout:   1,
				RateLimit: 1,
				Clock:     clk,
				OnStall:   col.add,
			})
			release := parkReader(t, r, 1000)
			defer release()
			clk.Advance(1_000_000) // any blocked wait would fire instantly
			for i := 0; i < scale(50, 15); i++ {
				r.WaitForReaders(Singleton(5))
				clk.Advance(1_000_000)
			}
			if got := col.count(); got != 0 {
				t.Fatalf("watchdog fired %d times for a non-covering predicate", got)
			}
		})
	}
}

// TestStallMetrics checks the stall counters flow into the engine's
// observability snapshot, and that the report lands in the flight
// recorder on the grace period of the wait it fired in.
func TestStallMetrics(t *testing.T) {
	r := NewEER(nil)
	met := obs.New()
	met.EnableFlightRecorder(16)
	r.SetMetrics(met)
	clk := tsc.NewManual(0)
	var col stallCollector
	r.SetStallConfig(StallConfig{
		Timeout:   1_000,
		RateLimit: time.Hour,
		Clock:     clk,
		OnStall:   col.add,
	})
	release := parkReader(t, r, 5)
	waited := make(chan struct{})
	go func() {
		r.WaitForReaders(Singleton(5))
		close(waited)
	}()
	awaitReports(t, &col, clk, 2_000, 1)
	release()
	<-waited
	s := r.Stats()
	if s.Stalls != 1 {
		t.Errorf("Snapshot.Stalls = %d, want 1", s.Stalls)
	}
	spans := met.FlightSnapshot()
	if len(spans) != 2 || spans[0].Kind != obs.SpanStall || spans[1].Kind != obs.SpanWait {
		t.Fatalf("spans = %+v, want the stall then the wait it interrupted", spans)
	}
	if stall, wait := spans[0], spans[1]; stall.GP != wait.GP ||
		stall.StartNs < wait.StartNs || stall.StartNs > wait.EndNs {
		t.Errorf("stall %+v is not inside wait %+v on its GP", stall, wait)
	}
}

// TestStallConfigDisarm checks Timeout <= 0 disarms a previously armed
// watchdog.
func TestStallConfigDisarm(t *testing.T) {
	r := NewEER(nil)
	clk := tsc.NewManual(0)
	var col stallCollector
	r.SetStallConfig(StallConfig{Timeout: 1, RateLimit: 1, Clock: clk, OnStall: col.add})
	r.SetStallConfig(StallConfig{Timeout: 0})
	release := parkReader(t, r, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	clk.Advance(1_000_000)
	if err := r.WaitForReadersCtx(ctx, Singleton(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait returned %v, want DeadlineExceeded", err)
	}
	if col.count() != 0 {
		t.Fatalf("disarmed watchdog fired %d times", col.count())
	}
	release()
}

// TestReaderDoPanicSafety checks every engine's Do closes the critical
// section when the callback panics: the panic re-raises, the reader
// stays usable, and a covering wait afterwards completes instead of
// wedging.
func TestReaderDoPanicSafety(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("panic was swallowed by Do")
					}
				}()
				rd.Do(5, func() { panic("reader bug") })
			}()
			done := make(chan struct{})
			go func() {
				r.WaitForReaders(All())
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("wait blocked after a panicking Do: critical section leaked")
			}
			// The reader survived and still works.
			ran := false
			rd.Do(6, func() { ran = true })
			if !ran {
				t.Fatal("Do did not run the callback after a prior panic")
			}
			rd.Unregister()
		})
	}
}

// TestSimulatedAndNopCtx covers the auxiliary engines' ctx paths.
func TestSimulatedAndNopCtx(t *testing.T) {
	s := NewSimulated(NewNop(), 1_000)
	if err := s.WaitForReadersCtx(context.Background(), All()); err != nil {
		t.Fatalf("simulated wait failed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.WaitForReadersCtx(ctx, All()); !errors.Is(err, context.Canceled) {
		t.Fatalf("simulated wait with dead ctx returned %v, want Canceled", err)
	}
	n := NewNop()
	if err := n.WaitForReadersCtx(ctx, All()); err != nil {
		t.Fatalf("nop wait returned %v, want nil", err)
	}
	rd, _ := n.Register()
	ran := false
	rd.Do(1, func() { ran = true })
	if !ran {
		t.Fatal("nop Do did not run")
	}
	rd.Unregister()
}

// TestStallReportCarriesFlavor pins the flavor token in the watchdog's
// diagnostics: an engine tagged via SetFlavor reports it (and the log
// line renders it), an untagged engine reports none — the attribution
// that matters when several engines are live in one process.
func TestStallReportCarriesFlavor(t *testing.T) {
	const timeoutNs = 1_000
	r := NewEER(nil)
	r.SetFlavor("eer")
	if got := r.FlavorToken(); got != "eer" {
		t.Fatalf("FlavorToken = %q after SetFlavor, want %q", got, "eer")
	}
	clk := tsc.NewManual(0)
	var col stallCollector
	r.SetStallConfig(StallConfig{
		Timeout:   timeoutNs,
		RateLimit: 1_000_000,
		Clock:     clk,
		OnStall:   col.add,
	})
	release := parkReader(t, r, 5)
	waited := make(chan struct{})
	go func() {
		r.WaitForReaders(Singleton(5))
		close(waited)
	}()
	awaitReports(t, &col, clk, 2*timeoutNs, 1)
	rep := col.last()
	if rep.Flavor != "eer" {
		t.Errorf("report flavor %q, want %q", rep.Flavor, "eer")
	}
	if line := rep.String(); !strings.Contains(line, "[flavor eer]") {
		t.Errorf("log line %q does not carry the flavor tag", line)
	}
	release()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled wait did not return after the reader exited")
	}

	// An engine built outside the flavor registry has no token and the
	// log line omits the tag.
	bare := StallReport{Engine: "X", Predicate: "all"}
	if s := bare.String(); strings.Contains(s, "flavor") {
		t.Errorf("untagged report renders a flavor tag: %q", s)
	}
}
