// Package adapt closes the loop from observability to actuation: a
// sampling controller that watches the runtime's own gauges — windowed
// wait rates from obs, reclaimer backlog and data age, stall-watchdog
// reports — and steers the knobs every other layer already exposes so
// the process stays inside an operator-declared target envelope.
//
// The controller is deliberately a simple hysteresis ladder, not a
// model: three modes (normal, elevated, degraded), escalating one rung
// when the measurements near the envelope for BreachAfter consecutive
// ticks and easing one rung after EaseAfter consecutive calm ticks.
// "Near" is Headroom × the bound (default 0.7), so the controller acts
// before the envelope is crossed rather than after — the envelope is
// the promise, the headroom band is the working margin.
//
// Actuation per rung:
//
//   - elevated: reclaim pacing drops to immediate, the hard watermarks
//     tighten to the envelope's backlog bounds, a flush is kicked, and
//     waiters switch to a yield-biased discipline (burn less CPU, let
//     the readers a grace period is waiting on actually run).
//   - degraded: additionally the overload policy flips PolicyBlock →
//     PolicyInline (the paper's §2.1 synchronous variant as a safety
//     valve: the backlog provably cannot grow past the watermark),
//     waiters park between polls, and — unless KeepObservability is
//     set — the flight recorder and runtime attribution are shed to
//     drop their overhead from the wait path. Everything shed is
//     remembered and restored on the way back down.
//
// Expedited flushes kicked on escalation are announced to the flight
// recorder first (obs.FlightExpedite), so the recorder can link the
// autotuner's decision to the coalesce span of the flush it caused.
//
// Every transition is recorded through obs.AdaptDecision, which counts
// it and leaves a SpanAdapt ("normal→elevated") in the flight recorder;
// the hysteresis is itself the rate limit — a flapping signal cannot log
// faster than one decision per BreachAfter/EaseAfter window. Controller
// state is published via
// obs.RegisterController, so /metrics and /debug/prcu/health show the
// mode, the counters, and the last tick's measurements against the
// envelope.
package adapt

import (
	"context"
	"sync"
	"time"

	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/reclaim"
)

// Mode is the controller's rung on its degradation ladder.
type Mode int

const (
	// ModeNormal runs the configuration the operator chose.
	ModeNormal Mode = iota
	// ModeElevated expedites reclamation and relaxes waiter spinning.
	ModeElevated
	// ModeDegraded additionally bounds the backlog inline and sheds
	// observability overhead.
	ModeDegraded
)

// String returns the mode name the export plane uses.
func (m Mode) String() string {
	switch m {
	case ModeElevated:
		return "elevated"
	case ModeDegraded:
		return "degraded"
	default:
		return "normal"
	}
}

// DefaultHeadroom is the fraction of each envelope bound at which the
// controller starts escalating.
const DefaultHeadroom = 0.7

// Envelope is the operator's target: the bounds the controller must
// keep the runtime inside. Zero on any axis means unbounded there.
type Envelope struct {
	// MaxAge bounds the data age: the oldest retired-but-unreclaimed
	// callback's age.
	MaxAge time.Duration
	// MaxPending / MaxBytes bound the reclamation backlog.
	MaxPending int
	MaxBytes   int64
	// MaxWaitP99 bounds the windowed WaitForReaders p99 latency.
	MaxWaitP99 time.Duration
	// Headroom is the fraction of each bound at which escalation
	// starts (0 = DefaultHeadroom; clamped to at most 1).
	Headroom float64
}

func (e Envelope) headroom() float64 {
	h := e.Headroom
	if h <= 0 {
		h = DefaultHeadroom
	}
	if h > 1 {
		h = 1
	}
	return h
}

// measurements is one tick's sensor readout.
type measurements struct {
	ageNs     int64
	backlog   int64
	bytes     int64
	waitP99Ns float64
	stalls    uint64
}

// exceeded reports a hard envelope violation on any bounded axis.
func (e Envelope) exceeded(m measurements) bool {
	return (e.MaxAge > 0 && m.ageNs > int64(e.MaxAge)) ||
		(e.MaxPending > 0 && m.backlog > int64(e.MaxPending)) ||
		(e.MaxBytes > 0 && m.bytes > e.MaxBytes) ||
		(e.MaxWaitP99 > 0 && m.waitP99Ns > float64(e.MaxWaitP99))
}

// nearing reports whether any bounded axis is inside the headroom band
// — the escalation trigger. Stall-watchdog reports in the window also
// count when a latency axis (age or wait p99) is bounded: a stalled
// grace period predicts exactly those violations, and reacting on the
// report beats waiting for the gauge to catch up.
func (e Envelope) nearing(m measurements) bool {
	h := e.headroom()
	if (e.MaxAge > 0 && float64(m.ageNs) > h*float64(e.MaxAge)) ||
		(e.MaxPending > 0 && float64(m.backlog) > h*float64(e.MaxPending)) ||
		(e.MaxBytes > 0 && float64(m.bytes) > h*float64(e.MaxBytes)) ||
		(e.MaxWaitP99 > 0 && m.waitP99Ns > h*float64(e.MaxWaitP99)) {
		return true
	}
	return m.stalls > 0 && (e.MaxAge > 0 || e.MaxWaitP99 > 0)
}

// Config parameterizes a Controller. Reclaimer, Metrics and Engines
// may each be nil/empty — the controller senses and actuates whatever
// it is given.
type Config struct {
	// Name keys the controller in the obs export registry ("" skips
	// registration).
	Name string
	// Interval is Start's tick period (0 = 50ms).
	Interval time.Duration
	// Envelope is the target to hold.
	Envelope Envelope
	// Metrics supplies windowed wait rates and stall counts, receives
	// decision events, and is where degraded mode sheds trace and
	// attribution overhead.
	Metrics *obs.Metrics
	// Reclaimer is the backlog being bounded: its age and backlog
	// gauges are sensors, its watermarks/pacing/policy are actuators.
	Reclaimer *reclaim.Reclaimer
	// Engines are the RCU flavors whose wait discipline the controller
	// tunes; entries that do not implement core.WaitTuner are ignored
	// (chaos-wrapped engines forward the hook).
	Engines []core.RCU
	// BreachAfter is how many consecutive nearing ticks escalate one
	// rung (0 = 1: react on the first).
	BreachAfter int
	// EaseAfter is how many consecutive calm ticks ease one rung
	// (0 = 4: recovery is deliberately slower than reaction).
	EaseAfter int
	// KeepObservability stops degraded mode from shedding the flight
	// recorder and runtime attribution.
	KeepObservability bool

	// MigrateTo and Migrate together arm the degraded-state escape
	// hatch: when the controller has sat at the degraded rung for
	// MigrateAfter consecutive ticks — in-engine actuation has run out
	// of room — it calls Migrate(ctx, MigrateTo) once, asynchronously.
	// Migrate is typically a prcu.Migrator's AutotuneHook; a failed
	// migration rolls itself back, and the hatch re-arms only after the
	// ladder eases out of degraded. Both must be set for the hatch to
	// exist.
	MigrateTo string
	Migrate   func(ctx context.Context, flavor string) error
	// MigrateAfter is the consecutive-degraded-tick threshold (0 = 8).
	MigrateAfter int
}

// Controller is the sampling feedback loop; construct with New, drive
// it with Start/Stop (its own ticker) or Step (one synchronous tick,
// for deterministic tests and external schedulers), and Close it to
// restore the baseline configuration and leave the export registry.
type Controller struct {
	cfg    Config
	tuners []core.WaitTuner

	mu        sync.Mutex
	mode      Mode
	ticks     uint64
	decisions uint64
	breaches  uint64
	hotRun    int
	calmRun   int
	last      measurements

	// Escape-hatch state: consecutive degraded ticks, whether the hatch
	// fired for the current degraded stay, and lifetime firings.
	degrRun   int
	migrFired bool
	escapes   uint64

	prev     obs.Snapshot
	prevAt   time.Time
	havePrev bool

	// Baseline captured at New; every ease back to normal restores it.
	basePending int
	baseBytes   int64
	basePacing  time.Duration
	basePolicy  reclaim.Policy
	baseTunings []core.WaitTuning

	// Observability shed in degraded mode, remembered for restore.
	shedFlightCap int
	shedAttr      bool

	stop chan struct{}
	done chan struct{}
}

// New builds a Controller, captures the baseline it will restore on
// ease/Close, and registers its state probe under cfg.Name.
func New(cfg Config) *Controller {
	if cfg.BreachAfter <= 0 {
		cfg.BreachAfter = 1
	}
	if cfg.EaseAfter <= 0 {
		cfg.EaseAfter = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.MigrateAfter <= 0 {
		cfg.MigrateAfter = 8
	}
	c := &Controller{cfg: cfg}
	for _, e := range cfg.Engines {
		if wt, ok := e.(core.WaitTuner); ok {
			c.tuners = append(c.tuners, wt)
			c.baseTunings = append(c.baseTunings, wt.WaitTuning())
		}
	}
	if r := cfg.Reclaimer; r != nil {
		c.basePending, c.baseBytes = r.Watermarks()
		c.basePacing = r.Pacing()
		c.basePolicy = r.Policy()
	}
	if cfg.Name != "" {
		obs.RegisterController(cfg.Name, c.State)
	}
	return c
}

// Start launches the controller's own ticker at cfg.Interval. It is a
// no-op if already started.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Step()
			}
		}
	}()
}

// Stop halts the ticker (if running) and waits for the tick in flight.
// The controller's actuation stays as-is; use Close to also restore
// the baseline.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close stops the controller, restores the baseline configuration
// (watermarks, pacing, policy, wait tuning, shed observability), and
// removes it from the export registry.
func (c *Controller) Close() {
	c.Stop()
	c.mu.Lock()
	c.apply(ModeNormal)
	c.mode = ModeNormal
	c.mu.Unlock()
	if c.cfg.Name != "" {
		obs.RegisterController(c.cfg.Name, nil)
	}
}

// Mode returns the current ladder rung.
func (c *Controller) Mode() Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// State is the export-registry probe: the controller's mode, counters,
// and last-tick measurements against the envelope.
func (c *Controller) State() obs.ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.ControllerState{
		Name:            c.cfg.Name,
		Mode:            c.mode.String(),
		ModeCode:        int(c.mode),
		Ticks:           c.ticks,
		Decisions:       c.decisions,
		Breaches:        c.breaches,
		Escapes:         c.escapes,
		AgeNs:           c.last.ageNs,
		MaxAgeNs:        int64(c.cfg.Envelope.MaxAge),
		Backlog:         c.last.backlog,
		MaxBacklog:      int64(c.cfg.Envelope.MaxPending),
		BacklogBytes:    c.last.bytes,
		MaxBacklogBytes: c.cfg.Envelope.MaxBytes,
		WaitP99Ns:       c.last.waitP99Ns,
		MaxWaitP99Ns:    int64(c.cfg.Envelope.MaxWaitP99),
	}
}

// Step runs one controller tick synchronously: sample, judge against
// the envelope, and actuate a mode transition when the hysteresis says
// so. Safe for concurrent use (ticks serialize on the controller lock).
func (c *Controller) Step() {
	m := c.sense()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	c.last = m
	env := c.cfg.Envelope
	if env.exceeded(m) {
		c.breaches++
	}
	if env.nearing(m) {
		c.hotRun++
		c.calmRun = 0
	} else {
		c.calmRun++
		c.hotRun = 0
	}
	switch {
	case c.hotRun >= c.cfg.BreachAfter && c.mode < ModeDegraded:
		c.transition(c.mode + 1)
		c.hotRun = 0
	case c.calmRun >= c.cfg.EaseAfter && c.mode > ModeNormal:
		c.transition(c.mode - 1)
		c.calmRun = 0
	}
	// Escape hatch: a sustained degraded stay means in-engine actuation
	// is out of room — hand the workload to a different flavor.
	if c.mode == ModeDegraded {
		c.degrRun++
	} else {
		c.degrRun = 0
		c.migrFired = false
	}
	if c.cfg.Migrate != nil && c.cfg.MigrateTo != "" && !c.migrFired && c.degrRun >= c.cfg.MigrateAfter {
		c.migrFired = true
		c.escapes++
		// Fire outside the controller lock and off the tick path: the
		// migration drains readers and flushes backlog, which can take
		// many tick intervals. Failure needs no handling here — the
		// migrator restores the source wiring itself.
		go func() { _ = c.cfg.Migrate(context.Background(), c.cfg.MigrateTo) }()
	}
}

// sense reads every sensor the controller was given. The windowed wait
// p99 and stall count come from consecutive Metrics snapshots (the
// same arithmetic the health endpoint uses); age and backlog read the
// reclaimer's gauges directly.
func (c *Controller) sense() measurements {
	var m measurements
	if r := c.cfg.Reclaimer; r != nil {
		m.ageNs = r.OldestAgeNs()
		m.backlog = int64(r.Pending())
		m.bytes = r.PendingBytes()
	}
	if met := c.cfg.Metrics; met != nil {
		now := time.Now()
		cur := met.Snapshot()
		c.mu.Lock()
		if c.havePrev {
			rt := obs.Delta(c.prev, cur, now.Sub(c.prevAt))
			m.waitP99Ns = rt.WaitP99Ns
			m.stalls = rt.Stalls
		}
		c.prev, c.prevAt, c.havePrev = cur, now, true
		c.mu.Unlock()
		if c.cfg.Reclaimer == nil {
			m.ageNs = cur.ReclaimOldestNs
			m.backlog = cur.ReclaimPending
			m.bytes = cur.ReclaimBytes
		}
	}
	return m
}

// transition moves to mode, actuates it, and records the decision.
// Caller holds c.mu.
func (c *Controller) transition(mode Mode) {
	from := c.mode
	c.mode = mode
	c.decisions++
	c.apply(mode)
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.AdaptDecision(from.String() + "→" + mode.String())
	}
}

// apply actuates one rung's settings. Caller holds c.mu; the actuators
// take only their own locks (reclaim capMu, engine atomics), so there
// is no ordering hazard.
func (c *Controller) apply(mode Mode) {
	r := c.cfg.Reclaimer
	switch mode {
	case ModeNormal:
		if r != nil {
			r.SetPolicy(c.basePolicy)
			r.SetWatermarks(c.basePending, c.baseBytes)
			if c.basePacing == 0 {
				r.SetPacing(-1) // 0 means "immediate" on readback
			} else {
				r.SetPacing(c.basePacing)
			}
		}
		for i, t := range c.tuners {
			t.SetWaitTuning(c.baseTunings[i])
		}
		c.restoreObservability()
	case ModeElevated:
		if r != nil {
			r.SetPolicy(c.basePolicy)
			r.SetPacing(-1)
			tp, tb := c.tightMarks()
			r.SetWatermarks(tp, tb)
			c.cfg.Metrics.FlightExpedite("adapt: elevated")
			r.Flush()
		}
		for _, t := range c.tuners {
			t.SetWaitTuning(core.WaitTuningYield)
		}
		c.restoreObservability()
	case ModeDegraded:
		if r != nil {
			r.SetPolicy(reclaim.PolicyInline)
			r.SetPacing(-1)
			tp, tb := c.tightMarks()
			r.SetWatermarks(tp, tb)
			c.cfg.Metrics.FlightExpedite("adapt: degraded")
			r.Flush()
		}
		for _, t := range c.tuners {
			t.SetWaitTuning(core.WaitTuningPark)
		}
		if !c.cfg.KeepObservability {
			c.shedObservability()
		}
	}
}

// tightMarks are the escalated hard watermarks: the envelope's backlog
// bounds where set, else the baseline (the controller never loosens
// past what the operator configured).
func (c *Controller) tightMarks() (int, int64) {
	tp, tb := c.basePending, c.baseBytes
	if p := c.cfg.Envelope.MaxPending; p > 0 && (tp == 0 || p < tp) {
		tp = p
	}
	if b := c.cfg.Envelope.MaxBytes; b > 0 && (tb == 0 || b < tb) {
		tb = b
	}
	return tp, tb
}

// shedObservability drops the flight recorder and runtime attribution,
// remembering what was on so restoreObservability can undo it.
func (c *Controller) shedObservability() {
	met := c.cfg.Metrics
	if met == nil {
		return
	}
	if n := met.DisableFlightRecorder(); n > 0 {
		c.shedFlightCap = n
	}
	if met.AttributionEnabled() {
		c.shedAttr = true
		met.DisableRuntimeAttribution()
	}
}

// restoreObservability re-enables whatever shedObservability dropped.
func (c *Controller) restoreObservability() {
	met := c.cfg.Metrics
	if met == nil {
		return
	}
	if c.shedFlightCap > 0 {
		met.EnableFlightRecorder(c.shedFlightCap)
		c.shedFlightCap = 0
	}
	if c.shedAttr {
		met.EnableRuntimeAttribution(c.attrName())
		c.shedAttr = false
	}
}

// attrName picks the engine name re-enabled attribution reports under.
func (c *Controller) attrName() string {
	if len(c.cfg.Engines) > 0 {
		return c.cfg.Engines[0].Name()
	}
	return c.cfg.Name
}
