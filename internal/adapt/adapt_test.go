package adapt

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/reclaim"
)

// wedge opens a covered critical section on e and returns a release
// func; while held, every grace period covering value 7 is wedged, so
// retired callbacks pend and the backlog/age gauges climb.
func wedge(t *testing.T, e core.RCU) func() {
	t.Helper()
	rd, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd.Enter(7)
		close(entered)
		<-release
		rd.Exit(7)
		rd.Unregister()
	}()
	<-entered
	var once sync.Once
	return func() {
		once.Do(func() { close(release) })
		<-done
	}
}

// TestLadderDeterministic walks the full mode ladder with synchronous
// Steps: a wedged reader makes the backlog exceed the envelope, the
// controller escalates normal→elevated→degraded actuating each rung
// (pacing, watermarks, policy, wait tuning, observability shedding);
// releasing the reader drains the backlog and EaseAfter calm ticks per
// rung walk it back down, restoring the exact baseline.
func TestLadderDeterministic(t *testing.T) {
	eng := core.NewTimeRCU(8, nil)
	met := obs.New()
	met.EnableFlightRecorder(128)
	rec := reclaim.New(eng, reclaim.Config{Shards: 1, FlushDelay: time.Millisecond, Metrics: met})
	defer rec.Close()

	c := New(Config{
		Name:      "ladder-test",
		Envelope:  Envelope{MaxPending: 4},
		Metrics:   met,
		Reclaimer: rec,
		Engines:   []core.RCU{eng},
		EaseAfter: 2,
	})
	defer c.Close()
	if c.Mode() != ModeNormal {
		t.Fatalf("fresh controller mode = %v, want normal", c.Mode())
	}

	release := wedge(t, eng)
	defer release()
	var freed atomic.Int64
	for i := 0; i < 10; i++ {
		rec.Retire(nil, core.Singleton(7), 8, func(any) { freed.Add(1) })
	}

	c.Step() // backlog 10 > 4: normal → elevated
	if c.Mode() != ModeElevated {
		t.Fatalf("after breach tick mode = %v, want elevated", c.Mode())
	}
	if got := rec.Pacing(); got != 0 {
		t.Errorf("elevated pacing = %v, want immediate", got)
	}
	if mp, _ := rec.Watermarks(); mp != 4 {
		t.Errorf("elevated hard watermark = %d, want envelope's 4", mp)
	}
	if rec.Policy() != reclaim.PolicyBlock {
		t.Error("elevated flipped the policy; that is degraded's job")
	}

	c.Step() // still breached: elevated → degraded
	if c.Mode() != ModeDegraded {
		t.Fatalf("after second breach tick mode = %v, want degraded", c.Mode())
	}
	if rec.Policy() != reclaim.PolicyInline {
		t.Error("degraded mode did not flip PolicyBlock → PolicyInline")
	}
	if met.FlightEnabled() {
		t.Error("degraded mode did not shed the flight recorder")
	}
	tun := eng.WaitTuning()
	if tun.Park == 0 {
		t.Errorf("degraded wait tuning = %+v, want the park preset", tun)
	}

	st := c.State()
	if st.Mode != "degraded" || st.ModeCode != 2 {
		t.Errorf("state mode = %q/%d, want degraded/2", st.Mode, st.ModeCode)
	}
	if st.Breaches == 0 || st.Decisions != 2 || st.Ticks != 2 {
		t.Errorf("state counters = %+v, want breaches>0 decisions=2 ticks=2", st)
	}
	if !st.Breached() {
		t.Error("state.Breached() = false with backlog over the envelope")
	}
	found := false
	for _, cs := range obs.Controllers() {
		if cs.Name == "ladder-test" {
			found = true
		}
	}
	if !found {
		t.Error("controller missing from obs.Controllers() registry")
	}

	release()
	rec.Barrier()
	if got := freed.Load(); got != 10 {
		t.Fatalf("freed %d callbacks after drain, want 10", got)
	}

	c.Step()
	c.Step() // two calm ticks: degraded → elevated
	if c.Mode() != ModeElevated {
		t.Fatalf("after %d calm ticks mode = %v, want elevated", 2, c.Mode())
	}
	if rec.Policy() != reclaim.PolicyBlock {
		t.Error("easing out of degraded did not restore the policy")
	}
	if !met.FlightEnabled() {
		t.Error("easing out of degraded did not restore the flight recorder")
	}

	c.Step()
	c.Step() // two more: elevated → normal, baseline restored
	if c.Mode() != ModeNormal {
		t.Fatalf("after ease-out mode = %v, want normal", c.Mode())
	}
	if mp, mb := rec.Watermarks(); mp != 0 || mb != 0 {
		t.Errorf("baseline watermarks = %d/%d, want unbounded 0/0", mp, mb)
	}
	if got := rec.Pacing(); got != time.Millisecond {
		t.Errorf("baseline pacing = %v, want the configured 1ms", got)
	}
	if got := eng.WaitTuning(); got != (core.WaitTuning{}) {
		t.Errorf("baseline wait tuning = %+v, want zero", got)
	}

	wantEvents := uint64(4) // two escalations, two eases
	if st := c.State(); st.Decisions != wantEvents {
		t.Errorf("decisions = %d, want %d", st.Decisions, wantEvents)
	}
	// The recorder was shed while degraded; at minimum the post-restore
	// decisions must be in it, labelled in words.
	labels := map[string]bool{}
	for _, sp := range met.FlightSnapshot() {
		if sp.Kind == obs.SpanAdapt {
			labels[sp.Label] = true
		}
	}
	if !labels["degraded→elevated"] || !labels["elevated→normal"] {
		t.Errorf("flight recorder's adapt spans = %v, want degraded→elevated and elevated→normal", labels)
	}
}

// TestHysteresis checks BreachAfter delays escalation and a single calm
// tick does not ease: the controller must not flap.
func TestHysteresis(t *testing.T) {
	eng := core.NewTimeRCU(8, nil)
	rec := reclaim.New(eng, reclaim.Config{Shards: 1, Metrics: obs.New()})
	defer rec.Close()
	c := New(Config{
		Envelope:    Envelope{MaxPending: 2},
		Reclaimer:   rec,
		Engines:     []core.RCU{eng},
		BreachAfter: 3,
		EaseAfter:   3,
	})
	defer c.Close()

	release := wedge(t, eng)
	defer release()
	for i := 0; i < 8; i++ {
		rec.Retire(nil, core.Singleton(7), 1, func(any) {})
	}
	c.Step()
	c.Step()
	if c.Mode() != ModeNormal {
		t.Fatalf("mode = %v after 2 of 3 breach ticks, want normal still", c.Mode())
	}
	c.Step()
	if c.Mode() != ModeElevated {
		t.Fatalf("mode = %v after BreachAfter ticks, want elevated", c.Mode())
	}

	release()
	rec.Barrier()
	c.Step()
	c.Step()
	if c.Mode() != ModeElevated {
		t.Fatalf("mode = %v after 2 of 3 calm ticks, want elevated still", c.Mode())
	}
	c.Step()
	if c.Mode() != ModeNormal {
		t.Fatalf("mode = %v after EaseAfter calm ticks, want normal", c.Mode())
	}
}

// TestKeepObservability pins the escape hatch: degraded mode must not
// shed the flight recorder when the operator asked to keep it.
func TestKeepObservability(t *testing.T) {
	eng := core.NewTimeRCU(8, nil)
	met := obs.New()
	met.EnableFlightRecorder(64)
	rec := reclaim.New(eng, reclaim.Config{Shards: 1, Metrics: met})
	defer rec.Close()
	c := New(Config{
		Envelope:          Envelope{MaxPending: 1},
		Metrics:           met,
		Reclaimer:         rec,
		Engines:           []core.RCU{eng},
		KeepObservability: true,
	})
	defer c.Close()

	release := wedge(t, eng)
	defer release()
	for i := 0; i < 4; i++ {
		rec.Retire(nil, core.Singleton(7), 1, func(any) {})
	}
	c.Step()
	c.Step()
	if c.Mode() != ModeDegraded {
		t.Fatalf("mode = %v, want degraded", c.Mode())
	}
	if !met.FlightEnabled() {
		t.Fatal("KeepObservability was ignored: flight recorder shed in degraded mode")
	}
}

// TestStartStop exercises the self-ticking path: a controller started
// on a fast interval escalates on its own when the envelope is
// breached, and Stop halts the ticker cleanly.
func TestStartStop(t *testing.T) {
	eng := core.NewTimeRCU(8, nil)
	rec := reclaim.New(eng, reclaim.Config{Shards: 1, Metrics: obs.New()})
	defer rec.Close()
	c := New(Config{
		Interval:  2 * time.Millisecond,
		Envelope:  Envelope{MaxPending: 2},
		Reclaimer: rec,
		Engines:   []core.RCU{eng},
		EaseAfter: 1000, // stay escalated once triggered
	})
	defer c.Close()

	release := wedge(t, eng)
	defer release()
	for i := 0; i < 8; i++ {
		rec.Retire(nil, core.Singleton(7), 1, func(any) {})
	}
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for c.Mode() == ModeNormal && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Mode() == ModeNormal {
		t.Fatal("self-ticking controller never reacted to a breached envelope")
	}
	c.Stop()
	c.Stop() // idempotent
	release()
	rec.Barrier()
	ticksAtStop := c.State().Ticks
	time.Sleep(10 * time.Millisecond)
	if got := c.State().Ticks; got != ticksAtStop {
		t.Errorf("ticks advanced %d → %d after Stop", ticksAtStop, got)
	}
}

// TestMigrateEscapeHatch pins the degraded-state escape: the Migrate
// hook fires exactly once per degraded stay after MigrateAfter
// consecutive degraded ticks, re-arms only after the controller eases
// out of degraded, and counts into State().Escapes. The envelope is
// age-only so the elevated rung leaves the watermarks unbounded and
// the test's own retirements never block.
func TestMigrateEscapeHatch(t *testing.T) {
	eng := core.NewTimeRCU(8, nil)
	met := obs.New()
	rec := reclaim.New(eng, reclaim.Config{Shards: 1, FlushDelay: time.Millisecond, Metrics: met})
	defer rec.Close()

	const maxAge = time.Millisecond
	fired := make(chan string, 4)
	c := New(Config{
		Envelope:  Envelope{MaxAge: maxAge},
		Metrics:   met,
		Reclaimer: rec,
		Engines:   []core.RCU{eng},
		EaseAfter: 1,
		MigrateTo: "packed",
		Migrate: func(ctx context.Context, flavor string) error {
			fired <- flavor
			return nil
		},
		MigrateAfter: 2,
	})
	defer c.Close()

	breach := func() func() {
		release := wedge(t, eng)
		for i := 0; i < 4; i++ {
			rec.Retire(nil, core.Singleton(7), 8, func(any) {})
		}
		time.Sleep(4 * maxAge) // let the wedged retirements age past the envelope
		return release
	}

	release := breach()
	c.Step() // normal → elevated
	c.Step() // elevated → degraded (degraded run = 1)
	select {
	case <-fired:
		t.Fatal("escape fired before MigrateAfter degraded ticks")
	default:
	}
	c.Step() // degraded run = 2: escape fires
	select {
	case got := <-fired:
		if got != "packed" {
			t.Fatalf("escape fired with flavor %q, want packed", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("escape never fired")
	}
	// Still degraded: must NOT fire again this stay.
	c.Step()
	c.Step()
	select {
	case <-fired:
		t.Fatal("escape fired twice in one degraded stay")
	default:
	}
	if st := c.State(); st.Escapes != 1 {
		t.Fatalf("State().Escapes = %d, want 1", st.Escapes)
	}

	// Ease out of degraded, breach again: the hatch is re-armed.
	release()
	rec.Barrier()
	c.Step() // calm tick: degraded → elevated; the degraded run resets
	release2 := breach()
	defer release2()
	c.Step() // elevated → degraded (run = 1)
	c.Step() // run = 2: fires again
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("escape did not re-arm after easing out of degraded")
	}
	if st := c.State(); st.Escapes != 2 {
		t.Fatalf("State().Escapes = %d after second stay, want 2", st.Escapes)
	}
}
