package prcu_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prcu"
)

func TestNewAllFlavors(t *testing.T) {
	for _, f := range prcu.Flavors() {
		r, err := prcu.New(f, prcu.Options{})
		if err != nil {
			t.Fatalf("New(%s): %v", f, err)
		}
		rd, err := r.Register()
		if err != nil {
			t.Fatal(err)
		}
		rd.Enter(1)
		rd.Exit(1)
		r.WaitForReaders(prcu.All())
		r.WaitForReaders(prcu.Singleton(1))
		r.WaitForReaders(prcu.Interval(1, 5))
		r.WaitForReaders(prcu.Func(func(v prcu.Value) bool { return v == 1 }))
		r.WaitForReaders(prcu.Iterable(0, 8, func(v prcu.Value) prcu.Value { return v + 2 }))
		rd.Unregister()
	}
}

func TestNewUnknownFlavor(t *testing.T) {
	if _, err := prcu.New("bogus", prcu.Options{}); err == nil {
		t.Fatal("unknown flavor must error")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on unknown flavor")
		}
	}()
	prcu.MustNew("bogus", prcu.Options{})
}

func TestNamedConstructors(t *testing.T) {
	cases := []struct {
		mk   func(prcu.Options) prcu.RCU
		name string
	}{
		{prcu.NewEER, "EER-PRCU"},
		{prcu.NewD, "D-PRCU"},
		{prcu.NewDEER, "DEER-PRCU"},
		{prcu.NewTimeRCU, "Time RCU"},
		{prcu.NewURCU, "URCU"},
		{prcu.NewTreeRCU, "Tree RCU"},
		{prcu.NewDistRCU, "Dist RCU"},
		{prcu.NewSRCU, "SRCU"},
		{prcu.NewPacked, "Packed RCU"},
	}
	for _, c := range cases {
		if got := c.mk(prcu.Options{}).Name(); got != c.name {
			t.Errorf("Name = %q, want %q", got, c.name)
		}
	}
}

func TestSimulatedAndNopWrappers(t *testing.T) {
	s := prcu.NewSimulated(prcu.NewTimeRCU(prcu.Options{}), 1000)
	s.WaitForReaders(prcu.All())
	n := prcu.NewNop(2)
	n.WaitForReaders(prcu.All())
	rd, err := n.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(0)
	rd.Exit(0)
	rd.Unregister()
}

// TestAsyncViaPublicAPI checks the public wiring of plain call_rcu:
// a single-shard, immediate-flush Reclaimer runs a deferred callback by
// Barrier.
func TestAsyncViaPublicAPI(t *testing.T) {
	r := prcu.NewDistRCU(prcu.Options{})
	rec := prcu.NewReclaimer(r, prcu.ReclaimConfig{Shards: 1, FlushDelay: -1})
	done := make(chan struct{})
	rec.Defer(prcu.All(), 0, func(error) { close(done) })
	rec.Barrier()
	select {
	case <-done:
	default:
		t.Fatal("callback did not run by Barrier")
	}
	rec.Close()
}

// TestReclaimerViaPublicAPI checks the public wiring of the bounded
// reclamation subsystem: Retire frees after a covering grace period,
// stats surface through the obs snapshot, and Close drains.
func TestReclaimerViaPublicAPI(t *testing.T) {
	r := prcu.NewEER(prcu.Options{})
	rec := prcu.NewReclaimer(r, prcu.ReclaimConfig{
		MaxPending: 8,
		Policy:     prcu.PolicyBlock,
	})
	freed := make(chan uint64, 4)
	for k := uint64(0); k < 4; k++ {
		rec.Retire(k, prcu.Singleton(k), 16, func(v any) { freed <- v.(uint64) })
	}
	rec.Barrier()
	if len(freed) != 4 {
		t.Fatalf("freed %d of 4 retirements by Barrier", len(freed))
	}
	if s := rec.Stats(); s.ReclaimFreed != 4 || s.ReclaimPending != 0 {
		t.Fatalf("stats: freed=%d pending=%d, want 4/0", s.ReclaimFreed, s.ReclaimPending)
	}
	if rec.Graces() == 0 || rec.Dropped() != 0 {
		t.Fatalf("graces=%d dropped=%d, want >0 and 0", rec.Graces(), rec.Dropped())
	}
	rec.Close()
}

// TestStallWatchdogViaOptions checks the public wiring: StallTimeout
// arms the watchdog at construction and OnStall receives the report
// while a wait is wedged on a parked reader.
func TestStallWatchdogViaOptions(t *testing.T) {
	reports := make(chan prcu.StallReport, 4)
	r := prcu.NewEER(prcu.Options{
		StallTimeout:   5 * time.Millisecond,
		StallRateLimit: time.Hour,
		OnStall:        func(rep prcu.StallReport) { reports <- rep },
	})
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(9)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := r.WaitForReadersCtx(ctx, prcu.Singleton(9)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait returned %v, want DeadlineExceeded", err)
	}
	select {
	case rep := <-reports:
		if rep.Engine != r.Name() {
			t.Errorf("report engine %q, want %q", rep.Engine, r.Name())
		}
		if len(rep.Readers) != 1 || !rep.Readers[0].HasValue || rep.Readers[0].Value != 9 {
			t.Errorf("report readers = %+v, want the one open section on 9", rep.Readers)
		}
	default:
		t.Fatal("OnStall never fired although the wait blocked past StallTimeout")
	}
	rd.Exit(9)
	rd.Unregister()
}

// The per-flavor contract tests (grace-period blocking, selectivity,
// reader reuse, context cancellation, panic-safe Do) live in the
// conformance suite, conformance_test.go, which runs over Flavors().

// TestRegisterMetricsRebinds pins the export registry's rebind contract:
// binding a live name must swap the backing collector, not panic, so
// sweeps that rebuild engines per data point keep one series name.
func TestRegisterMetricsRebinds(t *testing.T) {
	m1, m2 := prcu.NewMetrics(), prcu.NewMetrics()
	prcu.RegisterMetrics("prcu-test-rebind", m1)
	prcu.RegisterMetrics("prcu-test-rebind", m2)
	defer prcu.RegisterMetrics("prcu-test-rebind", nil)
}

// TestObsHandlerServesEngine checks the wiring end to end through the
// public API: Options.Metrics auto-registers under the engine name and
// ObsHandler serves its series and its health row.
func TestObsHandlerServesEngine(t *testing.T) {
	m := prcu.NewMetrics()
	r := prcu.MustNew(prcu.FlavorEER, prcu.Options{Metrics: m})
	defer prcu.RegisterMetrics(r.Name(), nil)
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(1)
	rd.Exit(1)
	rd.Unregister()
	r.WaitForReaders(prcu.All())

	h := prcu.ObsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	want := `prcu_waits_total{engine="` + r.Name() + `"} 1`
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics body missing %q", want)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/prcu/health", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"`+r.Name()+`"`) {
		t.Fatalf("health = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRuntimeAttributionOption checks the opt-in path works end to end
// (regions and labels are applied and cleared around waits) and that
// the default stays off.
func TestRuntimeAttributionOption(t *testing.T) {
	m := prcu.NewMetrics()
	r := prcu.MustNew(prcu.FlavorDEER, prcu.Options{Metrics: m, RuntimeAttribution: true})
	defer prcu.RegisterMetrics(r.Name(), nil)
	defer m.DisableRuntimeAttribution()
	if !m.AttributionEnabled() {
		t.Fatal("RuntimeAttribution option did not enable attribution")
	}
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(7)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.WaitForReaders(prcu.Singleton(8)) // uncovered: returns fast
		r.WaitForReaders(prcu.All())
	}()
	time.Sleep(10 * time.Millisecond)
	rd.Exit(7)
	<-done
	rd.Unregister()
	if s := m.Snapshot(); s.Waits != 2 {
		t.Fatalf("Waits = %d with attribution on, want 2", s.Waits)
	}

	m2 := prcu.NewMetrics()
	r2 := prcu.MustNew(prcu.FlavorDEER, prcu.Options{Metrics: m2})
	defer prcu.RegisterMetrics(r2.Name(), nil)
	if m2.AttributionEnabled() {
		t.Fatal("attribution enabled without the option")
	}
}
