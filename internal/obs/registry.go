package obs

import (
	"sort"
	"sync"
)

// named is one name→value table of the process-wide export registry that
// internal/obshttp serves. Binding a bound name swaps its value in
// place, so a benchmark sweep that rebuilds its engine per data point
// keeps one stable series name.
type named[T any] struct {
	mu sync.Mutex
	m  map[string]T
}

// set binds name to v, or removes the binding when bound is false. Empty
// names are ignored.
func (r *named[T]) set(name string, v T, bound bool) {
	if name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !bound {
		delete(r.m, name)
		return
	}
	if r.m == nil {
		r.m = map[string]T{}
	}
	r.m[name] = v
}

func (r *named[T]) get(name string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[name]
	return v, ok
}

// names returns the bound names in sorted order.
func (r *named[T]) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// each calls f for every binding in sorted name order. f runs outside
// the lock, so it may probe, snapshot, register or rebind.
func (r *named[T]) each(f func(name string, v T)) {
	for _, n := range r.names() {
		if v, ok := r.get(n); ok {
			f(n, v)
		}
	}
}

// The three tables: every name→Metrics binding becomes an
// `engine="name"` label set on /metrics and an entry on the debug
// endpoints; controllers and migrators bind a state probe each.
var (
	registered  named[*Metrics]
	controllers named[func() ControllerState]
	migrations  named[func() MigrationState]
)

// Register binds name to m in the process-wide export registry.
// Registering a bound name rebinds it; registering a nil Metrics removes
// the binding. Empty names are ignored.
func Register(name string, m *Metrics) { registered.set(name, m, m != nil) }

// Registered returns the Metrics bound to name, nil when unbound.
func Registered(name string) *Metrics {
	m, _ := registered.get(name)
	return m
}

// RegisteredNames returns the bound names in sorted order.
func RegisteredNames() []string { return registered.names() }

// EachRegistered calls f for every binding in sorted name order. f runs
// outside the registry lock, so it may snapshot, register or rebind.
func EachRegistered(f func(name string, m *Metrics)) { registered.each(f) }

// ControllerState is an adaptive controller's self-report for the export
// plane: its mode ladder position, decision counters, and the last tick's
// measurements against the operator's target envelope (limit 0 =
// unbounded on that axis). internal/adapt publishes one per controller
// via RegisterController; /debug/prcu/health and /metrics render them.
type ControllerState struct {
	Name      string `json:"name"`
	Mode      string `json:"mode"`      // "normal", "elevated", "degraded"
	ModeCode  int    `json:"mode_code"` // 0, 1, 2 — the /metrics encoding
	Ticks     uint64 `json:"ticks"`
	Decisions uint64 `json:"decisions"`         // actuations (mode transitions)
	Breaches  uint64 `json:"breaches"`          // ticks with ≥1 envelope violation
	Escapes   uint64 `json:"escapes,omitempty"` // degraded-state escape-hatch firings (live migrations requested)

	// Last-tick measurements against the envelope.
	AgeNs           int64   `json:"age_ns"`
	MaxAgeNs        int64   `json:"max_age_ns"`
	Backlog         int64   `json:"backlog"`
	MaxBacklog      int64   `json:"max_backlog"`
	BacklogBytes    int64   `json:"backlog_bytes"`
	MaxBacklogBytes int64   `json:"max_backlog_bytes"`
	WaitP99Ns       float64 `json:"wait_p99_ns"`
	MaxWaitP99Ns    int64   `json:"max_wait_p99_ns"`
}

// Breached reports whether the last tick's measurements violate the
// envelope on any bounded axis.
func (c ControllerState) Breached() bool {
	return (c.MaxAgeNs > 0 && c.AgeNs > c.MaxAgeNs) ||
		(c.MaxBacklog > 0 && c.Backlog > c.MaxBacklog) ||
		(c.MaxBacklogBytes > 0 && c.BacklogBytes > c.MaxBacklogBytes) ||
		(c.MaxWaitP99Ns > 0 && c.WaitP99Ns > float64(c.MaxWaitP99Ns))
}

// RegisterController binds a controller's state probe under name in the
// process-wide export registry (rebinding like Register; nil probe
// removes the binding). The probe is called on every scrape and must be
// safe for concurrent use.
func RegisterController(name string, probe func() ControllerState) {
	controllers.set(name, probe, probe != nil)
}

// Controllers returns every registered controller's current state in
// sorted name order. Probes run outside the registry lock.
func Controllers() []ControllerState {
	var out []ControllerState
	controllers.each(func(name string, probe func() ControllerState) {
		st := probe()
		st.Name = name
		out = append(out, st)
	})
	return out
}

// MigrationState is a live engine-migrator's self-report for the export
// plane: which handover (if any) is in flight, lifetime outcome
// counters, and the last run's duration and error. internal/migrate
// publishes one per migrator via RegisterMigration; /debug/prcu/health
// and /metrics render them.
type MigrationState struct {
	Name string `json:"name"`
	// From/To name the engines of the migration in flight, or of the
	// most recent one when idle.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Phase is "idle", "drain", "handover", "rollback" or
	// "stuck-rollback" (a rollback whose mandatory target drain keeps
	// failing); PhaseCode is the /metrics encoding (0-4 in that order).
	Phase     string `json:"phase"`
	PhaseCode int    `json:"phase_code"`
	Active    bool   `json:"active"`

	// Failed counts every migration that did not land the workload on
	// the target, including rollbacks: Started == Completed + Failed,
	// and RolledBack ⊆ Failed distinguishes failures that ran (and
	// reversed) the handover from those refused before anything flipped.
	Started    uint64 `json:"started"`
	Completed  uint64 `json:"completed"`
	RolledBack uint64 `json:"rolled_back"`
	Failed     uint64 `json:"failed"`

	// RollbackRetries counts failed target-drain attempts across all
	// rollbacks. The drain is mandatory (dual coverage must outlive the
	// last target reader) and retries until it succeeds; each failed
	// attempt increments this counter and records the attempt's error in
	// LastError, and a rollback several attempts deep parks in the
	// "stuck-rollback" phase until the drain lands.
	RollbackRetries uint64 `json:"rollback_retries,omitempty"`

	// LastDurationNs is the wall time of the most recently finished
	// migration (successful or not); LastError is empty after a success.
	LastDurationNs int64  `json:"last_duration_ns"`
	LastError      string `json:"last_error,omitempty"`
}

// RegisterMigration binds a migrator's state probe under name in the
// process-wide export registry (rebinding like Register; nil probe
// removes the binding). The probe is called on every scrape and must be
// safe for concurrent use.
func RegisterMigration(name string, probe func() MigrationState) {
	migrations.set(name, probe, probe != nil)
}

// Migrations returns every registered migrator's current state in sorted
// name order. Probes run outside the registry lock.
func Migrations() []MigrationState {
	var out []MigrationState
	migrations.each(func(name string, probe func() MigrationState) {
		st := probe()
		st.Name = name
		out = append(out, st)
	})
	return out
}
