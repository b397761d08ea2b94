package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"prcu/internal/tsc"
)

// This file is the configuration and reporting half of the grace-period
// resilience layer: the stall watchdog's StallConfig/StallReport and the
// hook point every engine embeds. The half that runs inside a wait —
// cancellation polling and the watchdog check — is waitSession.step in
// scan.go.

// DefaultStallRateLimit is the minimum interval between repeat stall
// reports for one engine, in the spirit of the kernel's RCU CPU stall
// warnings: a wedged grace period keeps re-reporting, but at a bounded
// rate however many waiters are stuck on it.
const DefaultStallRateLimit = 10 * time.Second

// StallConfig arms an engine's grace-period stall watchdog.
type StallConfig struct {
	// Timeout is how long a single WaitForReaders may block before the
	// watchdog fires. Zero or negative disarms the watchdog.
	Timeout time.Duration
	// OnStall, when non-nil, receives the report. It is invoked from the
	// stalled waiter's goroutine and must not call back into the engine's
	// wait paths.
	OnStall func(StallReport)
	// RateLimit bounds repeat reports engine-wide; at most one report
	// fires per window, shared by all concurrent waiters. Defaults to
	// DefaultStallRateLimit.
	RateLimit time.Duration
	// Clock is the time source for stall detection. Defaults to the
	// monotonic clock; tests inject a tsc.Manual for determinism.
	Clock Clock
}

// StalledReader describes the reader (or, for the counter-table
// engines, the counter node) a stalled wait is blocked on.
type StalledReader struct {
	// Slot is the reader's registry slot — except for D-PRCU and SRCU,
	// whose waits block on counter nodes, not readers; there it is the
	// counter-node index. Tree RCU, whose wait polls one root word for
	// every reader it seeded, names the first of them.
	Slot int
	// Value is the domain value the open critical section is on, when
	// the engine records one (HasValue). For D-PRCU it is the covered
	// predicate value whose node the wait is draining.
	Value    Value
	HasValue bool
	// OpenFor is a duration the section has been open at least, for the
	// timestamp-based engines (zero on the others): the watchdog clock's
	// advance since the wait's tick, which the section preceded. Its own
	// posted time is in its engine clock's units — epochs by default, not
	// nanoseconds — so it cannot say when the section began.
	OpenFor time.Duration
}

// StallReport is the watchdog's diagnostic snapshot of a wedged grace
// period, assembled when a wait exceeds StallConfig.Timeout.
type StallReport struct {
	// Engine is the engine's Name().
	Engine string
	// Flavor is the flavor token the engine was constructed under
	// ("eer", "packed", ...), empty when the engine was built outside
	// the flavor registry. In a multi-engine process it is what
	// attributes a stall to the right engine instance.
	Flavor string
	// Predicate describes the wait's predicate (Predicate.String).
	Predicate string
	// Elapsed is how long the reporting wait had been blocked.
	Elapsed time.Duration
	// Readers is what this wait is blocked on, as its own scan recorded
	// it: the one slot or counter node it is polling when the report
	// fires. It is not a census of every open covered section — other
	// readers the wait has yet to reach, or has already waited out, are
	// not listed.
	Readers []StalledReader
}

// String renders the report as a single kernel-style watchdog log line:
//
//	prcu: stall on EER-PRCU [flavor eer] pred=all elapsed=1.5s readers=1 [slot 3 (value 7, open 1.2s)]
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prcu: stall on %s", r.Engine)
	if r.Flavor != "" {
		fmt.Fprintf(&b, " [flavor %s]", r.Flavor)
	}
	fmt.Fprintf(&b, " pred=%s elapsed=%v readers=%d", r.Predicate, r.Elapsed, len(r.Readers))
	if len(r.Readers) > 0 {
		b.WriteString(" [")
		for i, rd := range r.Readers {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "slot %d", rd.Slot)
			switch {
			case rd.HasValue && rd.OpenFor > 0:
				fmt.Fprintf(&b, " (value %d, open %v)", rd.Value, rd.OpenFor)
			case rd.HasValue:
				fmt.Fprintf(&b, " (value %d)", rd.Value)
			case rd.OpenFor > 0:
				fmt.Fprintf(&b, " (open %v)", rd.OpenFor)
			}
		}
		b.WriteString("]")
	}
	return b.String()
}

// stallState is the armed watchdog: the normalized config plus the
// engine-wide rate-limit clock.
type stallState struct {
	cfg       StallConfig
	timeoutNs int64
	windowNs  int64
	// last is the clock reading of the most recent report. Fires CAS it
	// forward, so concurrent stalled waiters elect one reporter per
	// window.
	last atomic.Int64
}

// resilient is the resilience hook point embedded by every engine (via
// hooks). The zero value is an unarmed watchdog with no flavor token.
type resilient struct {
	stallCfg atomic.Pointer[stallState]
	flavor   atomic.Pointer[string]
}

// StallCarrier is implemented by every engine in this package: arming a
// StallConfig turns on the grace-period stall watchdog. It may be armed,
// re-armed or disarmed at any time.
type StallCarrier interface {
	SetStallConfig(StallConfig)
}

// FlavorCarrier is implemented by every engine via the resilient embed:
// the flavor registry stamps each engine it constructs with its flavor
// token so stall reports can attribute activity to the right engine
// instance when several are live.
type FlavorCarrier interface {
	SetFlavor(string)
	FlavorToken() string
}

// SetFlavor implements FlavorCarrier.
func (r *resilient) SetFlavor(f string) { r.flavor.Store(&f) }

// FlavorToken implements FlavorCarrier; empty until SetFlavor.
func (r *resilient) FlavorToken() string {
	if p := r.flavor.Load(); p != nil {
		return *p
	}
	return ""
}

// SetStallConfig implements StallCarrier.
func (r *resilient) SetStallConfig(cfg StallConfig) {
	if cfg.Timeout <= 0 {
		r.stallCfg.Store(nil)
		return
	}
	if cfg.Clock == nil {
		cfg.Clock = tsc.NewMonotonic()
	}
	if cfg.RateLimit <= 0 {
		cfg.RateLimit = DefaultStallRateLimit
	}
	st := &stallState{
		cfg:       cfg,
		timeoutNs: cfg.Timeout.Nanoseconds(),
		windowNs:  cfg.RateLimit.Nanoseconds(),
	}
	// Far enough in the past that the first report is never rate-limited,
	// without now-last underflowing for any clock epoch.
	st.last.Store(math.MinInt64 / 4)
	r.stallCfg.Store(st)
}

// DoCritical runs fn inside a read-side critical section on v,
// guaranteeing Exit even if fn panics (the panic is re-raised after the
// section closes). It backs every Reader's Do method: a panicking reader
// callback must never leave a critical section open, because an open
// section wedges every future covering grace period.
func DoCritical(rd Reader, v Value, fn func()) {
	rd.Enter(v)
	defer rd.Exit(v)
	fn()
}

// clampDur converts a nanosecond difference to a non-negative Duration
// (a racing exit can post Infinity between the occupancy check and the
// time read, or a clock shared across goroutines can read slightly
// behind the enter timestamp).
func clampDur(ns int64) time.Duration {
	if ns < 0 {
		return 0
	}
	return time.Duration(ns)
}
