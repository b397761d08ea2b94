// Package migrate implements live engine migration: a two-phase
// drain-and-handover protocol that moves a running workload from one
// RCU engine to another with zero lost reads and zero double or
// dropped reclamations, rolling back to the exact source wiring when a
// phase cannot complete in time.
//
// The protocol (full safety argument in DESIGN.md "Handover safety"):
//
//  0. Reclaimer.BeginHandover(target) — BEFORE anything flips, every
//     grace period the reclaimer runs starts covering both engines.
//     From here until step 4 (or rollback) the process is in the
//     dual-coverage window: read-side critical sections may exist on
//     either engine, and every wait over-covers, which PRCU §3.1
//     guarantees is always safe.
//  1. Flip the reader fronts (ReaderPool, hashtable, citrus handles)
//     onto the target behind their atomic indirections: new readers
//     enter the target, existing readers finish on the source.
//  2. Phase 1 — drain the source: one full source grace period, then
//     poll the source's reader registry down to zero with exponential
//     backoff (draining pool-cached stale readers between re-checks),
//     all bounded by a per-phase deadline and watched by an escalated
//     stall watchdog on the source.
//  3. Phase 2 — drain the retirement backlog submitted before the
//     flip (flush + backoff-poll on submission stamps), so no wait
//     that could have been wired to the source alone is left running.
//  4. Reclaimer.CompleteHandover() — the source is decommissioned;
//     future grace periods run on the target alone.
//
// Rollback (a phase deadline expiring, the escalated watchdog firing,
// or the caller's Context dying) restores the source wiring exactly:
// fronts flip back, the TARGET is drained the same way the source was
// being drained (grace period + registry poll — mandatory, because the
// moment AbortHandover returns, waits stop covering the target), and
// the reclaimer and watchdog return to their pre-migration
// configuration bit for bit — the same baseline-restore discipline as
// the autotuner's.
package migrate

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/reclaim"
)

// Front is one reader entry point the migration flips: anything that
// holds its engine behind an atomic indirection and can swap it in one
// step. ReaderPool, hashtable.Map and citrus.Tree implement it.
type Front interface {
	// SwapEngine redirects the front's new readers onto target and
	// returns the engine previously in place. Readers already obtained
	// keep running on their original engine and drain off it naturally.
	SwapEngine(target core.RCU) (prev core.RCU)
}

// Settler is implemented by fronts whose updater side runs its own
// grace-period waits (hashtable, citrus): after SwapEngine those waits
// cover both engines, and SettleEngine drops the old engine once the
// migrator has drained it.
type Settler interface {
	SettleEngine()
}

// StaleDrainer is implemented by fronts that cache registered readers
// (the ReaderPool): DrainStale releases cached readers stranded on a
// pre-swap engine. The registry-drain loop calls it between backoff
// re-checks so parked pool entries cannot hold the source open.
type StaleDrainer interface {
	DrainStale()
}

// Default protocol timings.
const (
	DefaultPhaseTimeout = 10 * time.Second
	DefaultBackoff      = 50 * time.Microsecond
	DefaultMaxBackoff   = 5 * time.Millisecond
)

// Config parameterizes a Migrator.
type Config struct {
	// Name keys the migrator in the export plane (obs.Migrations,
	// /debug/prcu/health, prcu_migrate_* metrics). Empty skips export
	// registration.
	Name string
	// PhaseTimeout bounds each protocol phase (source grain drain,
	// registry drain, backlog drain) separately. Defaults to
	// DefaultPhaseTimeout.
	PhaseTimeout time.Duration
	// Backoff/MaxBackoff shape the exponential backoff between drain
	// re-checks. Default to DefaultBackoff/DefaultMaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// StallTimeout, when positive, escalates the source engine's stall
	// watchdog for the duration of the migration: a stall report during
	// a drain phase aborts the phase immediately (triggering rollback)
	// instead of waiting out the phase deadline. The source's original
	// watchdog configuration is restored exactly on completion or
	// rollback.
	StallTimeout time.Duration
	// OnStall, when non-nil, additionally receives escalated reports.
	OnStall func(core.StallReport)
	// Metrics, when non-nil, records protocol transitions: the
	// MigrateEvent counter plus a SpanMigrate in the flight recorder
	// labelled "begin", "drained", "handover", "complete", "rollback" or
	// "stuck-rollback" (a rollback whose mandatory target drain has
	// failed stuckRollbackAttempts times in a row and is parked retrying
	// it in the visible phase of that name).
	Metrics *obs.Metrics
}

// stuckRollbackAttempts is how many consecutive target-drain failures a
// rollback tolerates before parking in the "stuck-rollback" phase
// (PhaseCode 4, degraded on /debug/prcu/health). The drain itself never
// gives up — dual coverage stays in force while it loops, so the system
// is slow, never unsafe — but past this point the condition is an
// operator-visible incident (a reader registered outside the configured
// fronts, or a leaked handle) rather than a transient.
const stuckRollbackAttempts = 3

// Migrator runs live migrations. One migration runs at a time; a
// second Migrate call blocks until the first finishes.
type Migrator struct {
	cfg Config

	mu sync.Mutex // serializes migrations

	// phaseCancel holds the in-flight phase's cancel func so the
	// escalated watchdog can abort the phase from the stalled waiter's
	// goroutine.
	phaseCancel atomic.Pointer[context.CancelFunc]

	stMu sync.Mutex
	st   obs.MigrationState
}

// New returns a Migrator and, when cfg.Name is set, registers its state
// probe in the export plane. Call Close to unregister.
func New(cfg Config) *Migrator {
	if cfg.PhaseTimeout <= 0 {
		cfg.PhaseTimeout = DefaultPhaseTimeout
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.MaxBackoff < cfg.Backoff {
		cfg.MaxBackoff = DefaultMaxBackoff
		if cfg.MaxBackoff < cfg.Backoff {
			cfg.MaxBackoff = cfg.Backoff
		}
	}
	m := &Migrator{cfg: cfg}
	m.st.Phase = "idle"
	if cfg.Name != "" {
		obs.RegisterMigration(cfg.Name, m.State)
	}
	return m
}

// Close unregisters the migrator from the export plane. It does not
// interrupt a migration in flight.
func (m *Migrator) Close() {
	if m.cfg.Name != "" {
		obs.RegisterMigration(m.cfg.Name, nil)
	}
}

// State returns the migrator's current export-plane state.
func (m *Migrator) State() obs.MigrationState {
	m.stMu.Lock()
	defer m.stMu.Unlock()
	return m.st
}

// update applies fn to the export state under its lock and recomputes
// the phase code.
func (m *Migrator) update(fn func(*obs.MigrationState)) {
	m.stMu.Lock()
	defer m.stMu.Unlock()
	fn(&m.st)
	switch m.st.Phase {
	case "drain":
		m.st.PhaseCode = 1
	case "handover":
		m.st.PhaseCode = 2
	case "rollback":
		m.st.PhaseCode = 3
	case "stuck-rollback":
		m.st.PhaseCode = 4
	default:
		m.st.PhaseCode = 0
	}
}

// event records a protocol transition in the metrics plane.
func (m *Migrator) event(phase string) { m.cfg.Metrics.MigrateEvent(phase) }

// Migrate moves the live workload from source to target: rec (optional)
// is switched into dual-coverage mode, every front is flipped onto
// target, the source is drained (phase 1) and the pre-flip retirement
// backlog flushed (phase 2) before the source is decommissioned. On any
// phase failure the source wiring — fronts, reclaimer, watchdog — is
// restored exactly and the phase's error returned.
//
// The fronts passed must cover every path that registers readers on
// source; a reader registered outside them never drains and phase 1
// times out (safely — rollback restores the source).
func (m *Migrator) Migrate(ctx context.Context, source, target core.RCU, fronts []Front, rec *reclaim.Reclaimer) error {
	if source == nil || target == nil {
		return fmt.Errorf("prcu/migrate: nil engine (source=%v target=%v)", source != nil, target != nil)
	}
	if source == target {
		return fmt.Errorf("prcu/migrate: source and target are the same engine")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	begin := time.Now()
	m.update(func(st *obs.MigrationState) {
		st.Active = true
		st.From = source.Name()
		st.To = target.Name()
		st.Phase = "drain"
		st.Started++
		st.LastError = ""
	})
	m.event("begin")

	finish := func(err error) error {
		m.update(func(st *obs.MigrationState) {
			st.Active = false
			st.Phase = "idle"
			st.LastDurationNs = time.Since(begin).Nanoseconds()
			if err != nil {
				st.LastError = err.Error()
			}
		})
		return err
	}

	// Step 0: dual coverage before anything flips, so no grace period
	// can miss a reader on either engine.
	var mark int64
	if rec != nil {
		mark = rec.NowNs()
		if err := rec.BeginHandover(target); err != nil {
			m.update(func(st *obs.MigrationState) { st.Failed++ })
			return finish(err)
		}
	}

	// Escalate the source watchdog for the drain, capturing its exact
	// baseline for restore.
	restoreStall := m.escalateStall(source)

	// Step 1: flip the fronts. Record what each front was on, not what
	// we assume it was on, so rollback restores exactly.
	prevs := make([]core.RCU, len(fronts))
	for i, f := range fronts {
		prevs[i] = f.SwapEngine(target)
	}

	rollback := func(cause error) error {
		m.update(func(st *obs.MigrationState) { st.Phase = "rollback" })
		m.event("rollback")
		for i, f := range fronts {
			f.SwapEngine(prevs[i])
		}
		// The target must be fully drained before AbortHandover: the
		// moment the reclaimer drops dual coverage, a reader still on
		// the target would be invisible to every future grace period.
		// This drain is therefore not abandonable — it retries past its
		// deadline (each attempt bounded by PhaseTimeout), which is safe
		// to do indefinitely because dual coverage stays in force while
		// it loops. It is never invisible, though: every failed attempt
		// bumps RollbackRetries and records its error in the export
		// state, and after stuckRollbackAttempts consecutive failures
		// the migrator parks in the "stuck-rollback" phase (EventStuck,
		// PhaseCode 4, degraded on /debug/prcu/health) while it keeps
		// retrying — that plateau means a reader outside the configured
		// fronts or a leaked handle, an incident, not a transient.
		for attempt := 1; ; attempt++ {
			dctx, cancel := context.WithTimeout(context.Background(), m.cfg.PhaseTimeout)
			err := m.drainEngine(dctx, target, fronts)
			cancel()
			if err == nil {
				break
			}
			retryErr := err
			m.update(func(st *obs.MigrationState) {
				st.RollbackRetries++
				st.LastError = retryErr.Error()
				if attempt >= stuckRollbackAttempts {
					st.Phase = "stuck-rollback"
				}
			})
			if attempt == stuckRollbackAttempts {
				m.event("stuck-rollback")
			}
		}
		m.update(func(st *obs.MigrationState) { st.Phase = "rollback" })
		m.settleFronts(fronts)
		if rec != nil {
			rec.AbortHandover()
		}
		restoreStall()
		// A rollback is also a failure of the migration it reversed:
		// Failed counts every run that did not land on the target, with
		// RolledBack the subset that flipped and came back.
		m.update(func(st *obs.MigrationState) { st.RolledBack++; st.Failed++ })
		return finish(fmt.Errorf("prcu/migrate: %s -> %s rolled back: %w", source.Name(), target.Name(), cause))
	}

	// Phase 1: drain the source. One full source grace period (every
	// section that straddled the flip has exited), then the registry
	// itself down to zero.
	ctx1, cancel1 := m.phaseCtx(ctx)
	err := m.drainEngine(ctx1, source, fronts)
	cancel1()
	if err != nil {
		return rollback(fmt.Errorf("phase 1 (source drain): %w", err))
	}
	m.settleFronts(fronts)
	m.event("drained")

	// Phase 2: flush the retirement backlog submitted before the flip
	// under the dual-coverage window, so the source can be
	// decommissioned with no wait left that was wired to it alone.
	if rec != nil {
		m.update(func(st *obs.MigrationState) { st.Phase = "handover" })
		ctx2, cancel2 := m.phaseCtx(ctx)
		err = m.drainBacklog(ctx2, rec, mark)
		cancel2()
		if err != nil {
			return rollback(fmt.Errorf("phase 2 (backlog drain): %w", err))
		}
		rec.CompleteHandover()
	}
	m.event("handover")

	restoreStall()
	m.update(func(st *obs.MigrationState) { st.Completed++ })
	m.event("complete")
	return finish(nil)
}

// phaseCtx derives one phase's deadline context and publishes its
// cancel func for the escalated watchdog.
func (m *Migrator) phaseCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	pctx, cancel := context.WithTimeout(ctx, m.cfg.PhaseTimeout)
	m.phaseCancel.Store(&cancel)
	return pctx, func() {
		m.phaseCancel.Store(nil)
		cancel()
	}
}

// escalateStall arms the migration watchdog on eng (when configured and
// supported) and returns the restore func that reinstates the exact
// prior configuration. A report during a phase cancels that phase.
func (m *Migrator) escalateStall(eng core.RCU) func() {
	if m.cfg.StallTimeout <= 0 {
		return func() {}
	}
	sc, ok := eng.(core.StallCarrier)
	if !ok {
		return func() {}
	}
	var prior core.StallConfig
	hadPrior := false
	if si, ok := eng.(core.StallInspector); ok {
		prior, hadPrior = si.StallConfigInForce()
	}
	sc.SetStallConfig(core.StallConfig{
		Timeout:   m.cfg.StallTimeout,
		RateLimit: m.cfg.StallTimeout, // re-report (and re-abort) every window
		OnStall: func(rep core.StallReport) {
			if m.cfg.OnStall != nil {
				m.cfg.OnStall(rep)
			}
			if c := m.phaseCancel.Load(); c != nil {
				(*c)()
			}
		},
	})
	return func() {
		if hadPrior {
			sc.SetStallConfig(prior)
		} else {
			sc.SetStallConfig(core.StallConfig{})
		}
	}
}

// drainEngine waits one full grace period on eng, then polls its reader
// registry down to zero with exponential backoff, draining stale
// pool-cached readers between re-checks.
//
// With the flight recorder armed, the drain gets its own GP ID, threaded
// into the engine wait's Context so the wait span joins the drain's
// chain, plus a SpanMigrateDrain covering the handover grace period.
func (m *Migrator) drainEngine(ctx context.Context, eng core.RCU, fronts []Front) error {
	met := m.cfg.Metrics
	if met.FlightEnabled() {
		gp := obs.NextGP()
		ctx = obs.WithGP(ctx, gp)
		startNs := met.FlightNow()
		err := eng.WaitForReadersCtx(ctx, core.All())
		met.FlightRecord(obs.FlightSpan{
			GP: gp, Kind: obs.SpanMigrateDrain, Track: "migrate",
			StartNs: startNs, EndNs: met.FlightNow(), Label: eng.Name(),
		})
		if err != nil {
			return fmt.Errorf("grace drain on %s: %w", eng.Name(), err)
		}
	} else if err := eng.WaitForReadersCtx(ctx, core.All()); err != nil {
		return fmt.Errorf("grace drain on %s: %w", eng.Name(), err)
	}
	rc, ok := eng.(core.ReaderCounter)
	if !ok {
		return nil
	}
	d := m.cfg.Backoff
	for i := 0; ; i++ {
		for _, f := range fronts {
			if sd, ok := f.(StaleDrainer); ok {
				sd.DrainStale()
			}
		}
		n := rc.LiveReaders()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("registry drain on %s: %d readers still live: %w", eng.Name(), n, ctx.Err())
		default:
		}
		// A pool handle parked in a sync.Pool slot no drain can reach
		// (another P's private cache, or an entry the runtime dropped)
		// is released by its finalizer — which needs a collection to
		// run. Nudge the GC periodically so such a handle cannot hold
		// the drain open until the phase deadline.
		if i%64 == 63 {
			runtime.GC()
		}
		d = m.backoff(d)
	}
}

// drainBacklog flushes rec and backoff-polls until no unresolved
// callback submitted at or before mark remains.
func (m *Migrator) drainBacklog(ctx context.Context, rec *reclaim.Reclaimer, mark int64) error {
	d := m.cfg.Backoff
	for {
		rec.Flush()
		if o := rec.OldestSubmittedNs(); o == 0 || o > mark {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("backlog drain: pre-flip retirements still pending: %w", ctx.Err())
		default:
		}
		d = m.backoff(d)
	}
}

// settleFronts drops dual coverage on the fronts that run their own
// updater-side waits, once the drained engine is quiescent.
func (m *Migrator) settleFronts(fronts []Front) {
	for _, f := range fronts {
		if s, ok := f.(Settler); ok {
			s.SettleEngine()
		}
	}
}

// backoff sleeps d and returns the next (doubled, capped) delay.
func (m *Migrator) backoff(d time.Duration) time.Duration {
	time.Sleep(d)
	d *= 2
	if d > m.cfg.MaxBackoff {
		d = m.cfg.MaxBackoff
	}
	return d
}
