// Package prcu implements Predicate RCU (PRCU), the read-copy-update
// variant of Arbel and Morrison ("Predicate RCU: An RCU for Scalable
// Concurrent Updates", PPoPP 2015), together with the baseline RCU
// algorithms the paper evaluates it against.
//
// RCU gives readers synchronization-free access that executes correctly
// with concurrent updates; in exchange, an update that transitions the
// data structure between certain states must wait for all pre-existing
// readers (WaitForReaders). That wait is the bottleneck that keeps RCU out
// of update-heavy data structures. PRCU fixes this by letting the update
// say which readers it actually needs to wait for: readers annotate their
// critical sections with a domain value (a key, a bucket index, ...), and
// WaitForReaders takes a predicate selecting the values whose readers the
// update's consistency depends on.
//
// # Engines
//
// Nine interchangeable engines implement the one RCU interface:
//
//	NewEER      EER-PRCU: evaluate the predicate per reader (§4.1)
//	NewD        D-PRCU: shared counter table indexed by hashed value (§4.2)
//	NewDEER     DEER-PRCU: per-reader counter tables (§4.3)
//	NewTimeRCU  Time RCU: timestamp quiescence, waits for all readers
//	NewURCU     URCU: global grace-period counter + writer lock
//	NewTreeRCU  Tree RCU: Linux hierarchical algorithm, userspace restriction
//	NewDistRCU  Arbel–Attiya distributed per-reader counters
//	NewSRCU     SRCU: per-subsystem two-counter gate protocol
//	NewPacked   Packed RCU: active bit + epoch packed in one reader word
//
// The plain-RCU engines ignore values and predicates, so algorithms can be
// written once against the PRCU interface and benchmarked over any engine.
//
// The nine run on four kernels: EER, DEER and Time RCU on the timestamp
// kernel; D-PRCU and SRCU on the counter kernel; Tree RCU and Dist RCU
// (Tree RCU without the tree) on the tree kernel; Packed and URCU (Packed
// with a writer lock) on the epoch kernel.
//
// # Usage
//
//	r := prcu.MustNew(prcu.FlavorD, prcu.Options{})
//	rd, _ := r.Register() // one per long-lived reader goroutine
//	...
//	rd.Enter(key)         // read-side critical section on `key`
//	... traverse ...
//	rd.Exit(key)
//	...
//	r.WaitForReaders(prcu.Interval(k+1, kPrime)) // updater
//
// The reader registry grows on demand, so Register never fails. Pinned,
// long-lived goroutines
// register once and keep their Reader; ephemeral goroutines (request
// handlers and the like) should borrow a warm handle from a ReaderPool
// instead:
//
//	pool := prcu.NewReaderPool(r)
//	...
//	pool.Critical(key, func() { ... traverse ... })
//
// See the examples directory for complete programs and packages citrus and
// hashtable for the paper's two showcase applications. A ReaderPool,
// Reclaimer, citrus.Tree or hashtable.Map uses the engine it was built on
// for its whole life.
//
// # Observability
//
// Set Options.Metrics (see NewMetrics) to collect engine-internal
// metrics: grace-period latency measured inside WaitForReaders,
// predicate selectivity (readers scanned versus actually waited for),
// sampled reader critical-section durations, spin-versus-park wait
// resolution, and D-PRCU counter-drain outcomes. Read them back with
// RCU.Stats, or serve the export plane with ObsHandler: Prometheus
// /metrics, the flight recorder as Chrome trace JSON, and a health
// endpoint for every engine bound by RegisterMetrics.
// Options.RuntimeAttribution additionally tags wait and reclaim-flush
// work with runtime/trace regions and pprof labels. With Metrics unset
// (the default) every hook reduces to one predictable nil-check branch.
//
// Options.FlightRecorder arms the grace-period flight recorder: every
// grace period gets a monotonically increasing GP ID and a causal span
// chain — retire → coalesce → wait → callback — buffered in a fixed ring
// and served as Chrome trace-event JSON on /debug/prcu/tracez (open the
// capture in Perfetto or chrome://tracing). Blocked waits additionally
// charge per-slot blame — which reader slots delayed the grace period,
// and by how much — aggregated via Metrics.TopBlame, the prcu_blame_*
// metric families, and the health endpoint's blame section. Off (the
// default) the recorder costs one atomic pointer load and a
// never-taken branch per hook.
//
// # Production hardening
//
// WaitForReadersCtx bounds a grace period by a context deadline or
// cancellation — an error return means the grace period did not complete
// and nothing may be reclaimed. Options.StallTimeout arms a kernel-style
// stall watchdog that reports waits wedged on a misbehaving reader
// (Options.OnStall receives the diagnostic StallReport). Reader.Do and
// ReaderPool.Critical keep critical sections panic-safe, and
// ReaderPool.Close releases pooled slots deterministically at shutdown.
// The internal chaos engine exercises all of this under fault injection
// in the torture suite.
package prcu

import (
	"fmt"
	"net/http"
	"time"

	"prcu/guard"
	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/obshttp"
	"prcu/internal/reclaim"
)

// Value is the opaque 64-bit domain value a reader presents to Enter/Exit
// and predicates are evaluated over.
type Value = core.Value

// Predicate selects which read-side critical sections a WaitForReaders
// must wait for. Construct with All, Func, Singleton, Iterable or Interval.
type Predicate = core.Predicate

// RCU is the engine interface; see the package documentation.
type RCU = core.RCU

// Reader is a registered reader's handle; see the package documentation.
type Reader = core.Reader

// Clock is a monotonically increasing, cross-thread-consistent time source
// for the timestamp-based engines. The default (nil) is a waiter-advanced
// epoch counter, the alternative to the paper's TSC that §4.1 names.
type Clock = core.Clock

// All returns the wildcard predicate: it holds for every value, making any
// PRCU engine behave as a standard RCU (§3.1 "RCU fallback").
func All() Predicate { return core.All() }

// Func returns a general predicate encoded as fn, which must be
// side-effect free and may be invoked any number of times per wait.
func Func(fn func(Value) bool) Predicate { return core.Func(fn) }

// Singleton returns the specialized predicate holding only for v.
func Singleton(v Value) Predicate { return core.Singleton(v) }

// Iterable returns the specialized predicate holding over
// {v1, next(v1), ..., vk}.
func Iterable(v1, vk Value, next func(Value) Value) Predicate {
	return core.Iterable(v1, vk, next)
}

// Interval returns an iterable predicate over the inclusive range [lo, hi].
func Interval(lo, hi Value) Predicate { return core.Interval(lo, hi) }

// Flavor names an RCU engine.
type Flavor string

// The available engines. FlavorEER, FlavorD and FlavorDEER are the paper's
// contribution; the rest are the baselines it compares against.
const (
	FlavorEER  Flavor = "eer"
	FlavorD    Flavor = "d"
	FlavorDEER Flavor = "deer"
	FlavorTime Flavor = "time"
	FlavorURCU Flavor = "urcu"
	FlavorTree Flavor = "tree"
	FlavorDist Flavor = "dist"
	FlavorSRCU Flavor = "srcu"
	// FlavorPacked is the packed-state epoch engine: per-reader active
	// bit + epoch in a single atomic word, mutex-free epoch-flip waits.
	FlavorPacked Flavor = "packed"
)

// Flavors lists every engine, in the order the paper's figures use
// (baselines beyond the paper follow in the order they were added).
func Flavors() []Flavor {
	return []Flavor{
		FlavorEER, FlavorD, FlavorDEER,
		FlavorTime, FlavorTree, FlavorURCU, FlavorDist, FlavorSRCU,
		FlavorPacked,
	}
}

// Options configures engine construction. The zero value selects the
// paper's evaluation parameters. Every engine's reader registry grows on
// demand.
type Options struct {
	// CounterTableSize is D-PRCU's |C|; power of two. Default 1024.
	CounterTableSize int
	// NodesPerReader is DEER-PRCU's per-reader array size; a power of two
	// no larger than 64. Default 16.
	NodesPerReader int
	// Clock overrides the time source for the timestamp engines (EER,
	// DEER, Time RCU). nil (the default) gives each engine its own
	// tsc.Epoch: readers load it, and only a wait that finds a covered
	// section open advances it, so Enter reads no hardware clock. A clock
	// with a Tick method is advanced by waits through Tick; any other is
	// only read, by readers and waits alike, as the paper reads its TSC.
	Clock Clock
	// Metrics, when non-nil, attaches the observability layer to the
	// constructed engine: grace-period latency, predicate selectivity,
	// sampled reader-section durations and more, readable via RCU.Stats.
	// One Metrics may be shared by several engines (their numbers merge).
	// nil (the default) disables collection at the cost of one
	// predictable branch per hook.
	Metrics *Metrics
	// StallTimeout, when positive, arms the engine's grace-period stall
	// watchdog: a WaitForReaders (or WaitForReadersCtx) blocked longer
	// than this assembles a StallReport — engine, predicate, elapsed
	// time, and the reader or counter node the wait is blocked on —
	// fires OnStall, and counts a stall in Metrics. Zero (the default)
	// disables the watchdog; its checks then cost nothing on the wait
	// path.
	StallTimeout time.Duration
	// OnStall receives stall reports when StallTimeout is set. It runs on
	// the stalled waiter's goroutine and must not call back into the
	// engine's wait paths. nil just counts/traces stalls in Metrics.
	OnStall func(StallReport)
	// StallRateLimit bounds repeat stall reports engine-wide (at most one
	// per window, shared by all concurrent waiters). Default 10s.
	StallRateLimit time.Duration
	// RuntimeAttribution, when set together with Metrics, tags the
	// engine's wait and reclaim-flush work for the Go runtime's own
	// profilers: WaitForReaders executes inside a runtime/trace user
	// region under a per-engine task, stall reports log into that task,
	// and the wait/flush goroutines carry pprof labels (prcu_engine,
	// prcu_op) visible in CPU and goroutine profiles. Off (the default)
	// the hook costs one pointer load and branch per wait. Note the
	// labels replace any pprof labels the waiting goroutine already
	// carried — attribution is per-engine opt-in for exactly that reason.
	RuntimeAttribution bool
	// FlightRecorder, when set together with Metrics, arms the
	// grace-period flight recorder at its default capacity: causal span
	// chains (retire → coalesce → wait → callback) under per-GP IDs,
	// per-slot reader blame on blocked waits, and the /debug/prcu/tracez
	// Chrome-trace endpoint. Equivalent to calling
	// Metrics.EnableFlightRecorder; use that directly for a custom
	// capacity. Off (the default) the recorder hooks cost one atomic
	// pointer load and a never-taken branch.
	FlightRecorder bool
}

// attach wires o.Metrics and the stall watchdog into a freshly
// constructed engine.
func (o Options) attach(r RCU) RCU {
	if o.Metrics != nil {
		if c, ok := r.(core.MetricsCarrier); ok {
			// Presize per-reader lanes from the slots the engine has
			// allocated, so no hot-path hook has to grow the lane table.
			if sc, ok := r.(core.SlotCapacitor); ok {
				o.Metrics.EnsureReaders(sc.SlotCapacity())
			}
			c.SetMetrics(o.Metrics)
			// Feed the export plane (ObsHandler) under the engine's own
			// name; rebuilding an engine with the same flavor rebinds the
			// name, keeping one stable series per flavor.
			obs.Register(r.Name(), o.Metrics)
			if o.RuntimeAttribution {
				o.Metrics.EnableRuntimeAttribution(r.Name())
			}
			if o.FlightRecorder {
				o.Metrics.EnableFlightRecorder(obs.DefaultFlightCapacity)
			}
		}
	}
	if o.StallTimeout > 0 {
		if sc, ok := r.(core.StallCarrier); ok {
			sc.SetStallConfig(core.StallConfig{
				Timeout:   o.StallTimeout,
				OnStall:   o.OnStall,
				RateLimit: o.StallRateLimit,
			})
		}
	}
	return r
}

// New constructs the engine named by flavor.
func New(flavor Flavor, opt Options) (RCU, error) {
	var r RCU
	switch flavor {
	case FlavorEER:
		r = core.NewEER(opt.Clock)
	case FlavorD:
		r = core.NewD(opt.CounterTableSize)
	case FlavorDEER:
		r = core.NewDEER(opt.NodesPerReader, opt.Clock)
	case FlavorTime:
		r = core.NewTimeRCU(opt.Clock)
	case FlavorURCU:
		r = core.NewURCU()
	case FlavorTree:
		r = core.NewTreeRCU()
	case FlavorDist:
		r = core.NewDistRCU()
	case FlavorSRCU:
		r = core.NewSRCU()
	case FlavorPacked:
		r = core.NewPacked()
	default:
		return nil, fmt.Errorf("prcu: unknown flavor %q", flavor)
	}
	// Stamp the flavor token before any watchdog can fire: StallReport
	// carries it so multi-engine processes attribute stalls to the right
	// engine instance.
	if fc, ok := r.(core.FlavorCarrier); ok {
		fc.SetFlavor(string(flavor))
	}
	return opt.attach(r), nil
}

// MustNew is New for known-good flavors; it panics on error.
func MustNew(flavor Flavor, opt Options) RCU {
	r, err := New(flavor, opt)
	if err != nil {
		panic(err)
	}
	return r
}

// NewEER returns an EER-PRCU engine (§4.1): wait-for-readers evaluates the
// predicate for each reader and waits, via timestamp quiescence detection,
// only for readers it holds for. Wait time is linear in the reader count
// but typically 10x shorter than a full RCU grace period. It runs on
// DEER-PRCU's timestamp kernel with one node per reader.
func NewEER(opt Options) RCU {
	return opt.attach(core.NewEER(opt.Clock))
}

// NewD returns a D-PRCU engine (§4.2): readers hash their value into a
// shared counter table and waits drain only the covered counters, making
// wait time independent of the reader count for enumerable predicates —
// at the price of an atomic counter update per Enter/Exit.
func NewD(opt Options) RCU {
	return opt.attach(core.NewD(opt.CounterTableSize))
}

// NewDEER returns a DEER-PRCU engine (§4.3): per-reader counter tables give
// EER's low read overhead without reader/waiter cache-line ping-pong, with
// EER's linear wait scan.
func NewDEER(opt Options) RCU {
	return opt.attach(core.NewDEER(opt.NodesPerReader, opt.Clock))
}

// NewTimeRCU returns the Time RCU baseline: EER-PRCU without predicates,
// on DEER-PRCU's timestamp kernel with one node per reader and no value
// posted by readers.
func NewTimeRCU(opt Options) RCU {
	return opt.attach(core.NewTimeRCU(opt.Clock))
}

// NewURCU returns the userspace-RCU baseline of Desnoyers et al.: the
// packed engine's reader and two-flip wait, with waiters serialized
// behind a global writer lock.
func NewURCU(opt Options) RCU {
	return opt.attach(core.NewURCU())
}

// NewTreeRCU returns the Linux hierarchical RCU baseline under the paper's
// userspace restriction (states between operations are quiescent).
func NewTreeRCU(opt Options) RCU {
	return opt.attach(core.NewTreeRCU())
}

// NewDistRCU returns the Arbel–Attiya distributed-counters RCU baseline:
// Tree RCU's per-reader generation counters with no combining tree, and
// lock-free waits that poll each reader found inside a section.
func NewDistRCU(opt Options) RCU {
	return opt.attach(core.NewDistRCU())
}

// NewSRCU returns McKenney's Sleepable RCU (§7): per-subsystem waiting
// through the two-counter gate protocol D-PRCU builds on. Each instance
// is one isolated subsystem; predicates are ignored within it. It runs on
// D-PRCU's counter kernel with a one-entry table, so it also implements
// CounterTableResizer.
func NewSRCU(opt Options) RCU {
	return opt.attach(core.NewSRCU())
}

// NewPacked returns the packed-state epoch engine: each reader's active
// flag and entry epoch share one padded atomic word, so Enter is a load
// plus a store, Exit a single store, and wait-for-readers fetch-and-adds
// a monotone epoch (no writer mutex, unlike URCU) and skips inactive
// readers with one load each. A plain RCU — predicates are ignored.
func NewPacked(opt Options) RCU {
	return opt.attach(core.NewPacked())
}

// Reclaimer is the bounded deferred-reclamation engine: sharded
// call_rcu-style retirement queues with batch coalescing (one grace
// period covers many retirements), count and byte watermarks, and
// backpressure or inline-wait degradation under overload. Construct
// with NewReclaimer; see internal/reclaim for the design.
type Reclaimer = reclaim.Reclaimer

// ReclaimConfig parameterizes NewReclaimer. The zero value is an
// unbounded, delay-batched reclaimer with processor-count shards.
type ReclaimConfig = reclaim.Config

// ReclaimPolicy selects the hard-watermark behavior of a Reclaimer.
type ReclaimPolicy = reclaim.Policy

const (
	// PolicyBlock blocks retiring callers at the hard watermark until the
	// backlog drains (flushing is expedited first).
	PolicyBlock = reclaim.PolicyBlock
	// PolicyInline degrades overloaded retirements to a synchronous
	// caller-side grace period and inline free.
	PolicyInline = reclaim.PolicyInline
)

// NewReclaimer starts a bounded deferred-reclamation engine over r.
// Retire schedules a free callback behind a covering grace period;
// batches coalesce compatible predicates so a retirement storm costs a
// handful of grace periods instead of one each. CloseCtx (or Close)
// must be called to release the shard workers.
func NewReclaimer(r RCU, cfg ReclaimConfig) *Reclaimer { return reclaim.New(r, cfg) }

// CounterTableResizer is implemented by the counter-kernel engines, D-PRCU
// and SRCU: Resize installs a larger (or smaller) counter table, globally
// draining the old one — the table expansion §4.2 describes for relieving
// hash-collision contention. Obtain it by type-asserting the engine
// returned by NewD (or NewSRCU, whose waits drain every entry of whatever
// table it has, so resizing it changes only where readers count):
//
//	if rs, ok := r.(prcu.CounterTableResizer); ok { rs.Resize(4096) }
type CounterTableResizer interface {
	Resize(newSize int)
	TableSize() int
}

// Compile-time check that the counter kernel provides the resize
// extension.
var _ CounterTableResizer = (*core.D)(nil)

// NewSimulated wraps an engine so WaitForReaders burns waitNs nanoseconds
// without any memory accesses — the paper's instrument for isolating
// reader/waiter cache-coherency costs (Figure 8). Unsafe outside
// measurements; see internal/core.Simulated.
func NewSimulated(inner RCU, waitNs int64) RCU { return core.NewSimulated(inner, waitNs) }

// NewNop returns the unsafe no-op engine used by the read-overhead
// ablation to measure a zero-synchronization ceiling. Its argument is
// unused: the reader registry grows on demand.
func NewNop(int) RCU { return core.NewNop() }

// Metrics is an engine's observability state: cache-line-padded atomic
// counters, per-reader lanes, latency histograms and an optional flight
// recorder. Construct with NewMetrics, attach via Options.Metrics, read
// via RCU.Stats or Metrics.Snapshot. See internal/obs for the layout
// rules that keep recording off the contended paths.
type Metrics = obs.Metrics

// Snapshot is a point-in-time aggregation of a Metrics, as returned by
// RCU.Stats. Its Dump method writes a human-readable report.
type Snapshot = obs.Snapshot

// HistSummary is a Snapshot's digest of one latency histogram.
type HistSummary = obs.HistSummary

// FlightSpan is one entry of the grace-period flight recorder: a causal
// span (retire, coalesce, wait or callback) or zero-duration event
// (stall, overload) stamped with a grace-period ID. Enable the recorder with
// Options.FlightRecorder or Metrics.EnableFlightRecorder, read spans
// back with Metrics.FlightSnapshot, or serve them as Chrome trace JSON
// on /debug/prcu/tracez.
type FlightSpan = obs.FlightSpan

// SpanKind labels what phase of a grace period's life a FlightSpan
// covers.
type SpanKind = obs.SpanKind

// The FlightSpan kinds.
const (
	SpanRetire   = obs.SpanRetire
	SpanCoalesce = obs.SpanCoalesce
	SpanWait     = obs.SpanWait
	SpanCallback = obs.SpanCallback
	SpanStall    = obs.SpanStall
	SpanOverload = obs.SpanOverload
)

// BlameSample names one reader slot a blocked wait was delayed by and
// for how long; FlightSpan.Blame carries the samples of one wait.
type BlameSample = obs.BlameSample

// BlameEntry is one reader slot's aggregated blame: how many blocked
// waits charged it, the cumulative and worst-case delay, and the delay
// distribution. Read the top offenders with Metrics.TopBlame.
type BlameEntry = obs.BlameEntry

// StallReport is the stall watchdog's diagnostic snapshot of a wedged
// grace period, delivered to Options.OnStall: engine name, predicate
// description, how long the reporting wait had been blocked, and what
// that wait is blocked on, read off the wait itself.
type StallReport = core.StallReport

// StalledReader describes what a stalled wait is blocked on: the reader
// slot it is polling (counter-node index for D-PRCU and SRCU), the value
// of the open section when the engine tracks one, and, on the timestamp
// engines (EER, DEER, Time RCU), a duration the section has been open at
// least: measured on the watchdog's clock from the wait's tick, which the
// section's Enter preceded.
type StalledReader = core.StalledReader

// StallCarrier is implemented by every engine: SetStallConfig arms,
// re-arms or (with a zero Timeout) disarms the grace-period stall
// watchdog at runtime. Options.StallTimeout is the usual way to arm it
// at construction.
type StallCarrier = core.StallCarrier

// StallConfig is the watchdog configuration for StallCarrier; see
// Options.StallTimeout/OnStall/StallRateLimit.
type StallConfig = core.StallConfig

// NewMetrics returns an enabled metrics collector to pass as
// Options.Metrics.
func NewMetrics() *Metrics { return obs.New() }

// RegisterMetrics binds m to name in the export plane served by
// ObsHandler: name becomes the engine="name" label on /metrics and the
// key on the /debug/prcu endpoints. Engines constructed with
// Options.Metrics are registered automatically under their engine name;
// use RegisterMetrics for custom names (one per engine instance, say)
// or for Metrics driven outside an engine. Registering a bound name
// rebinds it — a benchmark sweep that rebuilds its engine per data
// point keeps one stable series — and registering a nil Metrics removes
// the binding.
func RegisterMetrics(name string, m *Metrics) { obs.Register(name, m) }

// ObsHandler returns the live export plane over every metrics collector
// bound by RegisterMetrics (or automatically by Options.Metrics):
//
//	GET /metrics            Prometheus text exposition (v0.0.4)
//	GET /debug/prcu/tracez  flight-recorder spans as Chrome trace JSON (?engine=X)
//	GET /debug/prcu/health  stall/backlog-aware status (200 ok, 503 degraded)
//
// Mount it on any server: http.ListenAndServe(addr, prcu.ObsHandler()).
// Scrapes read the recording structures atomically; serving costs the
// engines nothing between scrapes.
func ObsHandler() http.Handler { return obshttp.Handler() }

// The typed API: package guard re-exported. See package guard for the
// full misuse model; the aliases below make `prcu` a one-import
// surface for new code, and cmd/prcuvet recognizes both spellings.

// Scope witnesses an open read-side critical section; every typed load
// demands one and it dies when the section exits. See guard.Scope.
type Scope = guard.Scope

// GuardedReader is the typed reader: a Reader plus reusable scope
// storage, minted by WrapReader. See guard.R.
type GuardedReader = guard.R

// WrapReader returns the typed reader over rd; see guard.Wrap.
func WrapReader(rd Reader) *GuardedReader { return guard.Wrap(rd) }

// Guarded is an atomic cell whose value is reachable only inside read
// scopes; see guard.Guarded.
type Guarded[T any] = guard.Guarded[T]

// NewGuarded returns a Guarded cell holding v; see guard.NewGuarded.
func NewGuarded[T any](v *T) *Guarded[T] { return guard.NewGuarded(v) }

// Cell is the intrusive atomic link of an RCU structure, loadable only
// through a Scope; see guard.Cell.
type Cell[T any] = guard.Cell[T]

// List is the canonical RCU linked list over Guarded/Cell; see
// guard.List.
type List[T any] = guard.List[T]

// NewList returns an empty typed RCU list; see guard.NewList.
func NewList[T any](next func(*T) *Cell[T]) *List[T] { return guard.NewList(next) }

// Retire schedules free(v) behind a grace period covering p, declaring
// unsafe.Sizeof(*v) retained bytes automatically; see guard.Retire.
func Retire[T any](rec *Reclaimer, p Predicate, v *T, free func(*T)) {
	guard.Retire(rec, p, v, free)
}

// RetireBytes is Retire with extra out-of-line bytes declared; see
// guard.RetireBytes.
func RetireBytes[T any](rec *Reclaimer, p Predicate, v *T, extra int, free func(*T)) {
	guard.RetireBytes(rec, p, v, extra, free)
}

// Retirer binds reclaimer, byte declaration and typed free once for an
// allocation-free retire path; see guard.Retirer.
type Retirer[T any] = guard.Retirer[T]

// NewRetirer constructs a Retirer; see guard.NewRetirer.
func NewRetirer[T any](rec *Reclaimer, extra int, free func(*T)) *Retirer[T] {
	return guard.NewRetirer(rec, extra, free)
}

// GuardEscape deliberately carries a guarded pointer out of its scope
// for validated-optimistic algorithms; see guard.Escape.
func GuardEscape[T any](s *Scope, p *T) *T { return guard.Escape(s, p) }
