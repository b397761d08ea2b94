package prcu

import (
	"context"
	"sync"
	"time"

	"prcu/internal/migrate"
	"prcu/internal/obs"
)

// EngineFront is one reader entry point a live migration flips:
// anything holding its engine behind an atomic indirection.
// *ReaderPool, *hashtable.Map and *citrus.Tree implement it.
type EngineFront = migrate.Front

// MigrationState is a migrator's export-plane self-report (also served
// under the /debug/prcu/health "migrations" section and the
// prcu_migrate_* metric families).
type MigrationState = obs.MigrationState

// MigratorConfig wires a Migrator to a live workload.
type MigratorConfig struct {
	// Name keys the migrator in the export plane. Empty skips export
	// registration.
	Name string
	// Engine is the engine currently serving the workload; Flavor is
	// its flavor token. Both are required.
	Engine RCU
	Flavor Flavor
	// Fronts are the reader entry points the migration flips. They must
	// cover every path that registers readers on Engine: a reader
	// registered outside them never drains, and migration (safely)
	// rolls back on the phase deadline.
	Fronts []EngineFront
	// Reclaimer, when non-nil, is carried across the handover: its
	// grace periods cover both engines for the migration window and its
	// pre-flip backlog is flushed before the source is decommissioned.
	Reclaimer *Reclaimer
	// Options construct the target engine on each To call. Metrics and
	// StallTimeout set here apply to the target exactly as New applies
	// them.
	Options Options

	// Protocol timings; see internal/migrate.Config. Zero values take
	// the defaults (10s phases, 50µs..5ms backoff, no escalation).
	PhaseTimeout time.Duration
	Backoff      time.Duration
	MaxBackoff   time.Duration
	// StallTimeout, when positive, escalates the source's stall
	// watchdog for the migration window: a stall during a drain phase
	// triggers rollback immediately. The source's own watchdog
	// configuration is restored exactly afterwards.
	StallTimeout time.Duration
	OnStall      func(StallReport)
	// Metrics, when non-nil, records protocol transitions (SpanMigrate
	// flight-recorder spans + the migrate-event counter).
	Metrics *Metrics
}

// Migrator moves a live workload between engine flavors with the
// two-phase drain-and-handover protocol (package internal/migrate;
// safety argument in DESIGN.md "Handover safety"). It is safe for
// concurrent use; migrations serialize.
type Migrator struct {
	inner *migrate.Migrator
	opt   Options

	mu     sync.Mutex
	cur    RCU
	flavor Flavor
	fronts []EngineFront
	rec    *Reclaimer
}

// NewMigrator returns a Migrator for the workload described by cfg.
// Call Close when done to unregister it from the export plane.
func NewMigrator(cfg MigratorConfig) *Migrator {
	if cfg.Engine == nil {
		panic("prcu: NewMigrator with nil Engine")
	}
	m := &Migrator{
		opt:    cfg.Options,
		cur:    cfg.Engine,
		flavor: cfg.Flavor,
		fronts: cfg.Fronts,
		rec:    cfg.Reclaimer,
	}
	m.inner = migrate.New(migrate.Config{
		Name:         cfg.Name,
		PhaseTimeout: cfg.PhaseTimeout,
		Backoff:      cfg.Backoff,
		MaxBackoff:   cfg.MaxBackoff,
		StallTimeout: cfg.StallTimeout,
		OnStall:      cfg.OnStall,
		Metrics:      cfg.Metrics,
	})
	return m
}

// To migrates the workload to flavor: it constructs a fresh target
// engine with the configured Options and runs the drain-and-handover
// protocol against it. On success the Migrator tracks the new engine;
// on failure the source wiring is already restored exactly and the
// phase's error is returned. Migrating to the current flavor is a
// no-op.
func (m *Migrator) To(ctx context.Context, flavor Flavor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if flavor == m.flavor {
		return nil
	}
	target, err := New(flavor, m.opt)
	if err != nil {
		return err
	}
	if err := m.inner.Migrate(ctx, m.cur, target, m.fronts, m.rec); err != nil {
		// The abandoned target's export binding (installed by
		// Options.attach under the target's name) would otherwise linger
		// as a stale /metrics series for an engine nothing runs on.
		m.dropObsBinding(target)
		return err
	}
	source := m.cur
	m.cur, m.flavor = target, flavor
	// Same for the decommissioned source after a successful handover.
	m.dropObsBinding(source)
	return nil
}

// dropObsBinding removes the export-plane binding Options.attach
// installed for an engine that no longer serves the workload — the
// abandoned target of a rolled-back migration, or the decommissioned
// source of a completed one. Guarded so it can only undo a binding this
// migrator's own Options made: the name must be bound to our Metrics and
// must not be the live engine's name (same-flavor rebinds share both).
// Callers hold m.mu.
func (m *Migrator) dropObsBinding(eng RCU) {
	if m.opt.Metrics == nil || eng == nil {
		return
	}
	name := eng.Name()
	if name == m.cur.Name() || obs.Registered(name) != m.opt.Metrics {
		return
	}
	obs.Register(name, nil)
}

// Engine returns the engine currently serving the workload.
func (m *Migrator) Engine() RCU {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Flavor returns the flavor currently serving the workload.
func (m *Migrator) Flavor() Flavor {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flavor
}

// State returns the migrator's export-plane state.
func (m *Migrator) State() MigrationState { return m.inner.State() }

// Close unregisters the migrator from the export plane. It does not
// interrupt a migration in flight.
func (m *Migrator) Close() { m.inner.Close() }

// AutotuneHook adapts the Migrator into the autotuner's degraded-state
// escape hatch: assign the result to AutotuneConfig.Migrate together
// with AutotuneConfig.MigrateTo naming the target flavor.
func (m *Migrator) AutotuneHook() func(context.Context, string) error {
	return func(ctx context.Context, to string) error {
		return m.To(ctx, Flavor(to))
	}
}

// Compile-time checks that the reader pool satisfies the migration
// front contracts (the structures assert their own in their packages).
var (
	_ EngineFront          = (*ReaderPool)(nil)
	_ migrate.StaleDrainer = (*ReaderPool)(nil)
)
