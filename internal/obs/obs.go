// Package obs is the engine-level observability layer: low-overhead
// metrics and a grace-period flight recorder (flight.go, the one event
// log) for the RCU engines in internal/core.
//
// The paper's entire evaluation turns on quantities only visible inside
// the grace-period machinery — how long a wait-for-readers really takes,
// how many readers it scans versus how many it actually waits for (the
// predicate's selectivity), and how long read-side critical sections
// last. A Metrics value collects exactly those, with the layout rules the
// engines themselves follow:
//
//   - Counters touched by the wait side are cache-line padded atomics
//     (internal/pad), so concurrent waiters do not false-share.
//   - Reader-side counts live in per-reader lanes, one padded cell per
//     reader slot, written only by the owning reader and aggregated only
//     at Snapshot time — recording on the read fast path must never
//     create reader/reader or reader/waiter coherence traffic, which is
//     the very effect (DEER-PRCU's raison d'être) the module measures.
//   - Latency distributions go into fixed-bucket log₂ histograms
//     (internal/stats); reader-section durations are sampled (1 in 64 by
//     default) so the shared histogram line is touched rarely.
//
// Engines hold a *Metrics pointer that is nil when observability is
// disabled; every hook sits behind a single predictable nil-check branch,
// so the disabled fast path costs one never-taken branch and nothing
// else.
package obs

import (
	"context"
	"runtime/pprof"
	rttrace "runtime/trace"
	"sync"
	"sync/atomic"

	"prcu/internal/pad"
	"prcu/internal/stats"
	"prcu/internal/tsc"
)

// DefaultSectionSampleShift makes one in 2^6 = 64 critical sections pay
// for a timestamped duration measurement.
const DefaultSectionSampleShift = 6

// Metrics is one engine's observability state. Construct with New; the
// nil *Metrics is valid everywhere (all methods no-op or return zeros),
// which is what lets engines guard hooks with a single nil check.
type Metrics struct {
	clock *tsc.Monotonic

	// Wait side. waits counts WaitForReaders calls; waitNs is the
	// engine-internal grace-period latency distribution.
	waits  pad.Uint64
	waitNs stats.Histogram

	// Predicate selectivity: slots (or counter nodes) examined by wait
	// scans versus those actually waited on because a covered critical
	// section was open.
	readersScanned pad.Uint64
	readersWaited  pad.Uint64

	// parks counts per-reader wait loops that exhausted the spin budget
	// and crossed into scheduler-yielding back-off (spin.Waiter's two
	// phases); waits resolved purely by spinning are readersWaited-parks.
	parks pad.Uint64

	// D-PRCU/SRCU counter-node drain outcomes (§4.2): resolved by
	// optimistic waiting, by the full gate-toggle protocol, or by
	// piggybacking on a concurrent lock holder's drains.
	drainsOptimistic pad.Uint64
	drainsGate       pad.Uint64
	drainsPiggyback  pad.Uint64

	// stalls counts grace-period stall reports the watchdog fired (already
	// rate-limited by the engine).
	stalls pad.Uint64

	// Reader side: per-slot lanes plus the shared sampled-duration
	// histogram. Lanes are pointers so the slice can grow without moving
	// cells out from under registered readers.
	laneMu      sync.Mutex
	lanes       []*ReaderLane
	sectionNs   stats.Histogram
	sampleShift uint

	// Deferred reclamation (internal/reclaim). The two gauges track the
	// live backlog — callbacks accepted but not yet resolved, and their
	// caller-declared bytes — and are updated under the reclaimer's
	// capacity lock, so a concurrent Snapshot never observes a value above
	// the configured hard watermark. The histograms are unitless
	// (batch sizes) and nanoseconds (flush latency) respectively.
	reclaimPending      pad.Int64
	reclaimBytes        pad.Int64
	reclaimRetired      pad.Uint64
	reclaimFreed        pad.Uint64
	reclaimDropped      pad.Uint64
	reclaimGraces       pad.Uint64
	reclaimExpedited    pad.Uint64
	reclaimBackpressure pad.Uint64
	reclaimInline       pad.Uint64
	reclaimBatch        stats.Histogram
	reclaimFlushNs      stats.Histogram

	// ageProbe, when set, reports the reclaimer's oldest-unresolved-
	// callback age in nanoseconds at snapshot time — the data-age gauge.
	// It is a pull probe rather than a pushed gauge because age advances
	// with wall time even when no reclaim transition fires to update it.
	ageProbe atomic.Pointer[func() int64]

	// retiredEnters accumulates the enter counts of dead readers: when a
	// slot is recycled its lane restarts from zero for the new owner
	// (per-slot stats must not smear across owners), and the old owner's
	// count moves here so Snapshot.Enters stays a monotone total.
	retiredEnters pad.Uint64

	// The two optional recorders' gates (attrib.go, flight.go), nil when
	// off. Every wait loads both, so they sit after the last padded cell,
	// on a line no hook writes.
	attr   atomic.Pointer[attrib]
	flight atomic.Pointer[flightRecorder]
}

// New returns an enabled Metrics with the default section sampling rate
// and both recorders off.
func New() *Metrics {
	return &Metrics{clock: tsc.NewMonotonic(), sampleShift: DefaultSectionSampleShift}
}

// SetSectionSampleShift makes one in 2^shift critical sections measure a
// duration (0 = every section). Call before readers register.
func (m *Metrics) SetSectionSampleShift(shift uint) { m.sampleShift = shift }

// now returns nanoseconds on the metrics clock.
func (m *Metrics) now() int64 { return m.clock.Now() }

// EnsureReaders grows the lane table to cover slots [0, n). It is
// idempotent and safe to call for engines sharing one Metrics; existing
// lanes never move.
func (m *Metrics) EnsureReaders(n int) {
	if m == nil {
		return
	}
	m.laneMu.Lock()
	defer m.laneMu.Unlock()
	for len(m.lanes) < n {
		m.lanes = append(m.lanes, &ReaderLane{m: m})
	}
}

// Lane returns the per-reader lane for slot, growing the table if the
// engine registered more readers than EnsureReaders anticipated.
func (m *Metrics) Lane(slot int) *ReaderLane {
	if m == nil {
		return nil
	}
	m.EnsureReaders(slot + 1)
	m.laneMu.Lock()
	defer m.laneMu.Unlock()
	return m.lanes[slot]
}

// WaitBegin marks the start of a WaitForReaders and returns its span
// (start timestamp plus any open attribution state), to be handed back
// to WaitEnd on the same goroutine.
func (m *Metrics) WaitBegin() WaitSpan { return m.WaitBeginCtx(nil) }

// WaitBeginCtx is WaitBegin for waits opened under a Context that may
// carry a grace-period ID from the layer that initiated the wait (the
// reclaimer's coalescer). With the flight recorder
// armed, the span joins that chain — or mints a fresh GP ID when the
// context carries none (plain WaitForReaders calls). ctx may be nil.
func (m *Metrics) WaitBeginCtx(ctx context.Context) WaitSpan {
	sp := WaitSpan{StartNs: m.now()}
	if a := m.attr.Load(); a != nil {
		sp.region = rttrace.StartRegion(a.taskCtx, "prcu:wait")
		pprof.SetGoroutineLabels(a.waitCtx)
		sp.labeled = true
	}
	if fr := m.flight.Load(); fr != nil {
		sp.fr = fr
		if sp.gp = GPFromContext(ctx); sp.gp == 0 {
			sp.gp = NextGP()
		}
	}
	return sp
}

// WaitEnd completes the wait sp: scanned slots (or counter nodes) were
// examined, waited of them had an open covered critical section, and
// parked of those waits fell out of the spin phase into scheduler
// yields.
func (m *Metrics) WaitEnd(sp WaitSpan, scanned, waited, parked uint64) {
	end := m.now()
	m.waits.Add(1)
	m.waitNs.Record(end - sp.StartNs)
	if scanned != 0 {
		m.readersScanned.Add(scanned)
	}
	if waited != 0 {
		m.readersWaited.Add(waited)
	}
	if parked != 0 {
		m.parks.Add(parked)
	}
	if sp.fr != nil {
		sp.fr.record(FlightSpan{
			GP: sp.gp, Kind: SpanWait, Track: "wait",
			StartNs: sp.StartNs, EndNs: end,
			Count: int(waited), Blame: sp.blame,
		})
	}
	if sp.region != nil {
		sp.region.End()
	}
	if sp.labeled {
		pprof.SetGoroutineLabels(unlabeled)
	}
}

// DrainOutcome classifies how one D-PRCU/SRCU counter-node drain
// resolved.
type DrainOutcome uint8

const (
	// DrainOptimistic: both counters were observed at zero within the
	// optimistic spin budget — no lock, no gate toggle.
	DrainOptimistic DrainOutcome = iota
	// DrainGate: the node lock was taken and the two-phase gate-toggle
	// protocol ran.
	DrainGate
	// DrainPiggyback: the lock was contended and the drain completed by
	// observing two full drains by the lock holder.
	DrainPiggyback
)

// StallDetected records one watchdog stall report, fired inside the wait
// sp: the SpanStall it leaves carries that wait's GP, so the report lines
// up with the SpanWait it interrupted.
func (m *Metrics) StallDetected(sp WaitSpan) {
	if m == nil {
		return
	}
	m.stalls.Add(1)
	if a := m.attr.Load(); a != nil {
		// Mark the stall in the execution trace too, so a trace of a
		// wedged process shows the report inside the blocked wait region.
		rttrace.Log(a.taskCtx, "prcu:stall", a.engine)
	}
	m.mark(SpanStall, "wait", sp.gp, 0, "")
}

// DrainCounts records a batch of counter-node drain outcomes.
func (m *Metrics) DrainCounts(optimistic, gate, piggyback uint64) {
	if optimistic != 0 {
		m.drainsOptimistic.Add(optimistic)
	}
	if gate != 0 {
		m.drainsGate.Add(gate)
	}
	if piggyback != 0 {
		m.drainsPiggyback.Add(piggyback)
	}
}

// OverloadKind classifies how a retirement crossed the reclaimer's hard
// watermark.
type OverloadKind uint8

const (
	// OverloadBackpressure: the caller blocked until the backlog drained
	// below the watermark (PolicyBlock).
	OverloadBackpressure OverloadKind = iota
	// OverloadInline: the caller degraded to a synchronous grace period
	// and freed its own retirement inline (PolicyInline, or an oversized
	// single retirement under any policy).
	OverloadInline
)

// ReclaimEnqueue records one callback entering the deferred-reclamation
// backlog with its caller-declared bytes. The reclaimer calls it under
// its capacity lock so the backlog gauges never transiently exceed the
// configured watermarks.
func (m *Metrics) ReclaimEnqueue(bytes int64) {
	if m == nil {
		return
	}
	m.reclaimPending.Add(1)
	m.reclaimBytes.Add(bytes)
	m.reclaimRetired.Add(1)
}

// ReclaimResolve records one wait group's callbacks leaving the backlog
// together, declaring bytes in total: freed of them after a completed
// grace period, dropped of them because their wait was abandoned at a
// bounded shutdown.
func (m *Metrics) ReclaimResolve(freed, dropped int, bytes int64) {
	if m == nil {
		return
	}
	m.reclaimPending.Add(-int64(freed + dropped))
	m.reclaimBytes.Add(-bytes)
	m.reclaimFreed.Add(uint64(freed))
	if dropped > 0 {
		m.reclaimDropped.Add(uint64(dropped))
	}
}

// ReclaimFlush records one shard batch flush: how many callbacks it
// resolved, how many grace periods the coalescer actually issued for
// them, how long the whole flush took, and whether it was expedited
// (soft-watermark or explicit Flush) rather than delay-batched.
func (m *Metrics) ReclaimFlush(batch int, graces uint64, durNs int64, expedited bool) {
	if m == nil {
		return
	}
	m.reclaimBatch.Record(int64(batch))
	m.reclaimFlushNs.Record(durNs)
	m.reclaimGraces.Add(graces)
	if expedited {
		m.reclaimExpedited.Add(1)
	}
}

// ReclaimOverload records a retirement hitting the hard watermark, with
// the backlog observed at that moment.
func (m *Metrics) ReclaimOverload(kind OverloadKind, backlog uint64) {
	if m == nil {
		return
	}
	label := "inline"
	if kind == OverloadBackpressure {
		m.reclaimBackpressure.Add(1)
		label = "backpressure"
	} else {
		m.reclaimInline.Add(1)
	}
	m.mark(SpanOverload, "reclaim", 0, int(backlog), label)
}

// SetReclaimAgeProbe installs (or, with nil, removes) the pull probe
// behind Snapshot.ReclaimOldestNs. The reclaimer installs its
// OldestAgeNs at construction; a Metrics shared by several reclaimers
// keeps the last probe installed.
func (m *Metrics) SetReclaimAgeProbe(probe func() int64) {
	if m == nil {
		return
	}
	if probe == nil {
		m.ageProbe.Store(nil)
		return
	}
	m.ageProbe.Store(&probe)
}

// ReclaimOldestNs reports the age probe's current reading (0 when no
// probe is installed or the backlog is empty).
func (m *Metrics) ReclaimOldestNs() int64 {
	if m == nil {
		return 0
	}
	if p := m.ageProbe.Load(); p != nil {
		return (*p)()
	}
	return 0
}

// ReaderLane is one reader slot's private metrics cell. Its counter is a
// padded atomic written only by the owning reader (Snapshot reads it),
// and the sampling scratch fields are owner-only.
type ReaderLane struct {
	m      *Metrics
	enters pad.Uint64
	// startNs/sampling are accessed only by the owning reader goroutine.
	startNs  int64
	sampling bool
}

// Recycle re-arms the lane for a new owner of its slot: the previous
// owner's enter count retires into the metrics-wide accumulator (so
// aggregate totals never go backwards) and any half-open duration sample
// is abandoned. Engines call it when handing the lane to a freshly
// registered reader; the previous owner has unregistered by then, so no
// one else is writing the lane.
func (l *ReaderLane) Recycle() {
	l.m.retiredEnters.Add(l.enters.Swap(0))
	l.sampling = false
}

// Enters returns the number of critical sections recorded for the lane's
// current owner (since the last Recycle).
func (l *ReaderLane) Enters() uint64 { return l.enters.Load() }

// OnEnter records a critical-section entry. Called by the engine's Enter
// after its own bookkeeping.
func (l *ReaderLane) OnEnter() {
	n := l.enters.Add(1)
	if (n-1)&(1<<l.m.sampleShift-1) == 0 {
		l.startNs = l.m.now()
		l.sampling = true
	}
}

// OnExit records the critical-section exit, completing a sampled
// duration measurement if OnEnter started one.
func (l *ReaderLane) OnExit() {
	if l.sampling {
		l.m.sectionNs.Record(l.m.now() - l.startNs)
		l.sampling = false
	}
}

// Reset clears every counter and histogram and empties the flight
// recorder (which stays armed). Reader lanes are preserved.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.waits.Store(0)
	m.waitNs.Reset()
	m.readersScanned.Store(0)
	m.readersWaited.Store(0)
	m.parks.Store(0)
	m.drainsOptimistic.Store(0)
	m.drainsGate.Store(0)
	m.drainsPiggyback.Store(0)
	m.stalls.Store(0)
	m.reclaimPending.Store(0)
	m.reclaimBytes.Store(0)
	m.reclaimRetired.Store(0)
	m.reclaimFreed.Store(0)
	m.reclaimDropped.Store(0)
	m.reclaimGraces.Store(0)
	m.reclaimExpedited.Store(0)
	m.reclaimBackpressure.Store(0)
	m.reclaimInline.Store(0)
	m.reclaimBatch.Reset()
	m.reclaimFlushNs.Reset()
	m.sectionNs.Reset()
	m.retiredEnters.Store(0)
	m.laneMu.Lock()
	for _, l := range m.lanes {
		l.enters.Store(0)
	}
	m.laneMu.Unlock()
	if fr := m.flight.Load(); fr != nil {
		fr.reset()
	}
}
