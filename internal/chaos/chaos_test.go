package chaos

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/core"
	"prcu/internal/tsc"
)

// engines mirrors the core test harness's engine list: every flavor,
// freshly constructed, so the chaos schedules run against each wait
// protocol (timestamp scan, counter gates, phase flips, combining
// tree, per-reader generations).
func engines() map[string]func() core.RCU {
	return map[string]func() core.RCU{
		"EER":    func() core.RCU { return core.NewEER(nil) },
		"D":      func() core.RCU { return core.NewD(64) },
		"DEER":   func() core.RCU { return core.NewDEER(16, nil) },
		"Time":   func() core.RCU { return core.NewTimeRCU(nil) },
		"URCU":   func() core.RCU { return core.NewURCU() },
		"Tree":   func() core.RCU { return core.NewTreeRCU() },
		"Dist":   func() core.RCU { return core.NewDistRCU() },
		"SRCU":   func() core.RCU { return core.NewSRCU() },
		"Packed": func() core.RCU { return core.NewPacked() },
	}
}

func scale(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func scaleDur(full, short time.Duration) time.Duration {
	if testing.Short() {
		return short
	}
	return full
}

// csRecord is the torture test's seqlock publication of one reader's
// critical sections (same discipline as the core safety harness): val
// is stable while seq is odd, the open marker is set only after Enter
// returns, the closed marker before Exit is invoked. Any wait that
// returns while a snapshotted covered seq is unchanged returned early.
type csRecord struct {
	val atomic.Uint64
	seq atomic.Uint64
	_   [48]byte
}

// TestChaosTortureSafety runs the safety property over every flavor
// behind a fixed-seed chaos schedule: Enter jitter widens the
// reader/waiter race windows, delayed Exits stretch critical sections
// across waiter scans, wait jitter perturbs waiter phase. The
// assertion is the hard one — zero early wait returns — plus a check
// that the schedule actually injected faults (a chaos test that
// injected nothing proves nothing).
func TestChaosTortureSafety(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) { chaosTorture(t, mk()) })
	}
}

// TestChaosTortureJitteredClock runs the same schedule over the three
// timestamp engines with a jittering clock plugged in, on the monotonic,
// the logical (fetch-add) and the default epoch source. A wait on these
// engines takes its t0 late — after its first look at a reader's node,
// and on the epoch by ticking it — and the jitter stretches exactly that
// window, as it does the reader's window between posting its value and
// its timestamp.
func TestChaosTortureJitteredClock(t *testing.T) {
	sources := map[string]func() core.Clock{
		"Monotonic": func() core.Clock { return tsc.NewMonotonic() },
		"Logical":   func() core.Clock { return tsc.NewLogical() },
		"Epoch":     func() core.Clock { return tsc.NewEpoch() },
	}
	flavors := map[string]func(c core.Clock) core.RCU{
		"EER":  func(c core.Clock) core.RCU { return core.NewEER(c) },
		"DEER": func(c core.Clock) core.RCU { return core.NewDEER(16, c) },
		"Time": func(c core.Clock) core.RCU { return core.NewTimeRCU(c) },
	}
	for fname, mk := range flavors {
		for sname, src := range sources {
			t.Run(fname+"/"+sname, func(t *testing.T) {
				inner := src()
				clock := newJitterClock(inner, 0x5eed_0002, 1.0/32, 1.0/512)
				chaosTorture(t, mk(clock))
				if clock.jitters.Load() == 0 {
					t.Fatal("the jittering clock injected no jitter")
				}
				// Waits reach the epoch only through the jittering clock's
				// Tick: had the wrapper hidden it, waits would have read t0
				// with Now and the epoch would still read 0.
				if e, ok := inner.(*tsc.Epoch); ok && e.Now() == 0 {
					t.Fatal("no wait ticked the epoch through the jittering clock")
				}
			})
		}
	}
}

// chaosTorture is the torture run of the two tests above over inner.
func chaosTorture(t *testing.T, inner core.RCU) {
	e := Wrap(inner, Config{
		Seed:         0x5eed_0001,
		EnterJitter:  0.10,
		ExitDelay:    0.05,
		ExitDelayDur: 100 * time.Microsecond,
		WaitJitter:   0.25,
	})
	const readers = 6
	records := make([]csRecord, readers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rd, err := e.Register()
			if err != nil {
				fail <- "register: " + err.Error()
				return
			}
			defer rd.Unregister()
			rec := &records[id]
			for i := 0; !stop.Load(); i++ {
				v := core.Value((id*31 + i) % 24)
				rec.val.Store(uint64(v))
				rd.Enter(v)
				rec.seq.Add(1) // open
				if i%4 == 0 {
					// Hold every fourth section open across a reschedule, so
					// that waiters do snapshot open sections.
					runtime.Gosched()
				}
				rec.seq.Add(1) // closed
				rd.Exit(v)
				if i%32 == 0 {
					runtime.Gosched()
				}
			}
		}(id)
	}
	preds := []core.Predicate{
		core.All(),
		core.Singleton(7),
		core.Interval(4, 12),
	}
	for _, p := range preds {
		wg.Add(1)
		go func(p core.Predicate, waits int) {
			defer wg.Done()
			type snap struct {
				idx int
				seq uint64
			}
			var snaps []snap
			for n := 0; n < waits && !stop.Load(); n++ {
				snaps = snaps[:0]
				for i := range records {
					rec := &records[i]
					s := rec.seq.Load()
					if s&1 == 1 && p.Holds(core.Value(rec.val.Load())) {
						snaps = append(snaps, snap{i, s})
					}
				}
				if n%2 == 0 {
					e.WaitForReaders(p)
				} else if err := e.WaitForReadersCtx(context.Background(), p); err != nil {
					fail <- "uncancelled ctx wait failed: " + err.Error()
					return
				}
				for _, s := range snaps {
					if records[s.idx].seq.Load() == s.seq {
						fail <- "covered critical section survived a chaos-schedule wait"
						stop.Store(true)
						return
					}
				}
			}
		}(p, scale(150, 50))
	}
	timer := time.AfterFunc(scaleDur(250*time.Millisecond, 80*time.Millisecond),
		func() { stop.Store(true) })
	defer timer.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case msg := <-fail:
		stop.Store(true)
		<-done
		t.Fatal(msg)
	case <-done:
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	case <-time.After(30 * time.Second):
		stop.Store(true)
		t.Fatal("chaos torture deadlocked (possible wait livelock)")
	}
	c := e.Counts()
	if c.EnterJitters+c.ExitDelays+c.WaitJitters == 0 {
		t.Fatalf("chaos schedule injected no faults: %+v", c)
	}
}

// TestChaosStallWatchdog injects a guaranteed stall (every Exit holds
// the section open well past the stall timeout) and asserts the
// watchdog fires on every flavor — with the inner engine's name and a
// positive elapsed — while the wait itself still completes once the
// stalled reader finally exits.
func TestChaosStallWatchdog(t *testing.T) {
	timeout := scaleDur(10*time.Millisecond, 5*time.Millisecond)
	stallFor := 6 * timeout
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			inner := mk()
			e := Wrap(inner, Config{Seed: 0x5eed_0002, Stall: 1.0, StallDur: stallFor})
			reports := make(chan core.StallReport, 4)
			e.SetStallConfig(core.StallConfig{
				Timeout:   timeout,
				RateLimit: time.Hour, // at most one report in this test
				OnStall:   func(r core.StallReport) { reports <- r },
			})
			rd, err := e.Register()
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			exited := make(chan struct{})
			go func() {
				rd.Enter(5)
				close(entered)
				rd.Exit(5) // chaos holds the section open for stallFor first
				close(exited)
				rd.Unregister()
			}()
			<-entered
			e.WaitForReaders(core.All()) // must block on the stalled section
			select {
			case rep := <-reports:
				if rep.Engine != inner.Name() {
					t.Errorf("report names engine %q, want %q", rep.Engine, inner.Name())
				}
				if rep.Predicate != "all" {
					t.Errorf("report names predicate %q, want %q", rep.Predicate, "all")
				}
				if rep.Elapsed < timeout {
					t.Errorf("report elapsed %v below the %v timeout", rep.Elapsed, timeout)
				}
			default:
				t.Fatal("stall watchdog did not fire for a section held past the timeout")
			}
			<-exited
			if got := e.Counts().Stalls; got != 1 {
				t.Errorf("injected stalls = %d, want 1", got)
			}
		})
	}
}

// TestChaosCtxDeadline is the acceptance scenario: with a reader
// parked inside a covered critical section, a deadline-bounded wait
// must return context.DeadlineExceeded within twice its deadline; the
// grace period did not complete, and once the reader exits a plain
// wait does. Run over every flavor behind wait jitter.
func TestChaosCtxDeadline(t *testing.T) {
	deadline := scaleDur(200*time.Millisecond, 100*time.Millisecond)
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			e := Wrap(mk(), Config{Seed: 0x5eed_0003, WaitJitter: 0.5})
			rd, err := e.Register()
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			release := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd.Enter(5)
				close(entered)
				<-release
				rd.Exit(5)
				rd.Unregister()
			}()
			<-entered
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			t0 := time.Now()
			err = e.WaitForReadersCtx(ctx, core.Singleton(5))
			elapsed := time.Since(t0)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("wait on a parked covered reader returned %v, want DeadlineExceeded", err)
			}
			if elapsed > 2*deadline {
				t.Errorf("deadline-bounded wait took %v, want <= %v", elapsed, 2*deadline)
			}
			close(release)
			wg.Wait()
			// The reader is gone; an unbounded wait now completes.
			e.WaitForReaders(core.Singleton(5))
		})
	}
}

// TestChaosCtxExcludedCompletes is the other half of the acceptance
// scenario, for the predicate-aware engines: the same parked reader
// must NOT block a deadline-bounded wait whose predicate excludes its
// value — that wait completes with a nil error well inside the
// deadline.
func TestChaosCtxExcludedCompletes(t *testing.T) {
	prcuEngines := map[string]func() core.RCU{
		"EER":  func() core.RCU { return core.NewEER(nil) },
		"D":    func() core.RCU { return core.NewD(1024) },
		"DEER": func() core.RCU { return core.NewDEER(16, nil) },
	}
	for name, mk := range prcuEngines {
		t.Run(name, func(t *testing.T) {
			e := Wrap(mk(), Config{Seed: 0x5eed_0004, WaitJitter: 0.5})
			rd, err := e.Register()
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			release := make(chan struct{})
			go func() {
				rd.Enter(1000) // far from 5; no hash collision at 1024 buckets
				close(entered)
				<-release
				rd.Exit(1000)
				rd.Unregister()
			}()
			<-entered
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := e.WaitForReadersCtx(ctx, core.Singleton(5)); err != nil {
				t.Fatalf("excluding-predicate wait failed: %v (parked reader should not cover it)", err)
			}
			close(release)
		})
	}
}

// TestChaosDeterministicStreams pins the seeding contract: two engines
// wrapped with the same seed give reader k the same fault decisions.
func TestChaosDeterministicStreams(t *testing.T) {
	mk := func() *Engine {
		return Wrap(core.NewEER(nil), Config{
			Seed:         42,
			EnterJitter:  0.3,
			ExitDelay:    0.2,
			ExitDelayDur: 1, // negligible hold, still counted
		})
	}
	run := func(e *Engine) Counts {
		rd, err := e.Register()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			rd.Enter(core.Value(i))
			rd.Exit(core.Value(i))
		}
		rd.Unregister()
		return e.Counts()
	}
	a, b := run(mk()), run(mk())
	if a != b {
		t.Fatalf("same seed, same operations, different fault counts: %+v vs %+v", a, b)
	}
	if a.EnterJitters == 0 || a.ExitDelays == 0 {
		t.Fatalf("fault stream suspiciously empty: %+v", a)
	}
}

// TestChaosReaderPanicSafety checks the wrapper preserves Do's
// guarantee: a panicking callback under chaos still exits the
// critical section, so a covering wait afterwards completes.
func TestChaosReaderPanicSafety(t *testing.T) {
	e := Wrap(core.NewEER(nil), Config{Seed: 7, EnterJitter: 1.0})
	rd, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed")
			}
		}()
		rd.Do(5, func() { panic("reader bug") })
	}()
	done := make(chan struct{})
	go func() {
		e.WaitForReaders(core.Singleton(5))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wait blocked after a panicking Do: critical section leaked")
	}
	rd.Unregister()
}
