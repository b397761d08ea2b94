package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"prcu/internal/stats"
)

// The grace-period flight recorder assigns every grace period a
// monotonically increasing GP ID and records a causal span chain for it:
// retire (queue residency of each deferred callback) → coalesce (the
// batch group the callback landed in, with its merged predicate) → wait
// (the engine-internal WaitForReaders, with per-slot blame samples) →
// callback execution. Point events — stall reports and reclaimer
// overloads — are zero-duration spans in the same ring (mark), so it is
// the module's only event log. /debug/prcu/tracez renders it as Chrome
// trace-event JSON; the blame table it aggregates names the reader slots
// that actually delay grace periods.
//
// The gate (Metrics.flight) is a single atomic pointer that is nil when
// the recorder is off, so every hook on the wait and reclaim paths costs
// one pointer load and one never-taken branch when disabled. Span
// recording itself takes a mutex — spans occur at wait/flush frequency,
// never on the reader fast path, so a lock there costs nothing that
// matters.

// gpSeq is the process-wide grace-period ID allocator. One sequence
// across all engines and reclaimers keeps IDs unique across recorders.
var gpSeq atomic.Uint64

// NextGP allocates a fresh grace-period ID (never 0).
func NextGP() uint64 { return gpSeq.Add(1) }

// gpKey carries a grace-period ID through a Context from the layer that
// opened the span chain (the reclaimer's coalescer) to the engine wait
// that continues it.
type gpKey struct{}

// WithGP returns ctx carrying the grace-period ID gp.
func WithGP(ctx context.Context, gp uint64) context.Context {
	return context.WithValue(ctx, gpKey{}, gp)
}

// GPFromContext extracts the grace-period ID from ctx (0 when absent or
// ctx is nil).
func GPFromContext(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if gp, ok := ctx.Value(gpKey{}).(uint64); ok {
		return gp
	}
	return 0
}

// SpanKind discriminates flight-recorder spans along the grace-period
// lifecycle.
type SpanKind uint8

const (
	// SpanRetire is one deferred callback's queue residency: submission
	// (Reclaimer.Defer/Retire stamp) to the moment its batch was taken.
	SpanRetire SpanKind = iota + 1
	// SpanCoalesce is the batch-coalescing stage: the accumulation window
	// plus the partition that produced this span's wait group.
	SpanCoalesce
	// SpanWait is the engine-internal WaitForReaders, with per-slot
	// blame samples for the readers that delayed it.
	SpanWait
	// SpanCallback is the post-wait callback execution of a wait group.
	SpanCallback
	// SpanStall marks a watchdog stall report, on the GP of the wait it
	// fired in; it carries no count (a report names one blocker).
	SpanStall
	// SpanOverload marks a retirement hitting the reclaimer's hard
	// watermark; Count is the backlog then, Label how the caller degraded.
	SpanOverload
)

// String returns the span kind's mnemonic.
func (k SpanKind) String() string {
	switch k {
	case SpanRetire:
		return "retire"
	case SpanCoalesce:
		return "coalesce"
	case SpanWait:
		return "wait"
	case SpanCallback:
		return "callback"
	case SpanStall:
		return "stall"
	case SpanOverload:
		return "overload"
	default:
		return "?"
	}
}

// BlameSample names one reader slot that was still inside a critical
// section when a wait's scan first saw it, and how long it individually
// delayed the wait's completion.
type BlameSample struct {
	Slot    int   `json:"slot"`
	DelayNs int64 `json:"delay_ns"`
}

// FlightSpan is one recorded stage of a grace period's lifecycle. Times
// are on the owning Metrics' clock; GP ties the chain together.
type FlightSpan struct {
	// GP is the grace-period ID the span belongs to.
	GP   uint64   `json:"gp"`
	Kind SpanKind `json:"kind"`
	// Track is the rendering lane: "wait" for engine waits and stalls,
	// "reclaim/<shard>" for the reclaimer stages ("reclaim" for its
	// overloads).
	Track   string `json:"track"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Count is the span's cardinality: callbacks in the batch stage,
	// readers actually waited on for SpanWait.
	Count int `json:"count"`
	// Label carries the human-readable detail (the predicate, the
	// trigger).
	Label string `json:"label,omitempty"`
	// Blame is SpanWait's per-slot delay attribution.
	Blame []BlameSample `json:"blame,omitempty"`
}

// blameCell is one reader slot's cumulative blame account.
type blameCell struct {
	samples uint64
	totalNs int64
	maxNs   int64
	hist    stats.Histogram
}

// flightRecorder is the armed recorder: a bounded span ring plus the
// per-slot blame aggregation table, both under one mutex (spans arrive
// at wait/flush frequency).
type flightRecorder struct {
	mu    sync.Mutex
	spans []FlightSpan
	head  uint64 // total spans ever recorded; ring index = head % cap
	blame map[int]*blameCell
}

// MaxFlightCapacity bounds the span ring: 2^16 spans is far past
// post-mortem use and keeps the rounding below trivially safe.
const MaxFlightCapacity = 1 << 16

// DefaultFlightCapacity is the span-ring size Options.FlightRecorder
// arms.
const DefaultFlightCapacity = 4096

// EnableFlightRecorder arms the grace-period flight recorder with a
// span ring of at least capacity entries (minimum 16, clamped to
// MaxFlightCapacity). Non-positive capacities are a caller bug and
// panic.
func (m *Metrics) EnableFlightRecorder(capacity int) {
	if capacity <= 0 {
		panic("prcu/obs: EnableFlightRecorder capacity must be positive")
	}
	if m == nil {
		return
	}
	if capacity > MaxFlightCapacity {
		capacity = MaxFlightCapacity
	}
	if capacity < 16 {
		capacity = 16
	}
	m.flight.Store(&flightRecorder{
		spans: make([]FlightSpan, 0, capacity),
		blame: map[int]*blameCell{},
	})
}

// recorder returns the armed flight recorder, nil when it is off or m is
// the nil Metrics.
func (m *Metrics) recorder() *flightRecorder {
	if m == nil {
		return nil
	}
	return m.flight.Load()
}

// FlightEnabled reports whether the flight recorder is armed.
func (m *Metrics) FlightEnabled() bool { return m.recorder() != nil }

// FlightNow reads the Metrics clock — the timebase every FlightSpan is
// stamped on. Layers with their own clocks (the reclaimer) convert
// durations onto it rather than mixing bases.
func (m *Metrics) FlightNow() int64 {
	if m == nil {
		return 0
	}
	return m.now()
}

// FlightRecord records sp. It is the recording entry point for the
// reclaimer and for tests synthesizing deterministic
// chains; a disarmed recorder drops the span.
func (m *Metrics) FlightRecord(sp FlightSpan) {
	if fr := m.recorder(); fr != nil {
		fr.record(sp)
	}
}

func (f *flightRecorder) record(sp FlightSpan) {
	f.mu.Lock()
	if len(f.spans) < cap(f.spans) {
		f.spans = append(f.spans, sp)
	} else {
		f.spans[f.head%uint64(cap(f.spans))] = sp
	}
	f.head++
	for _, b := range sp.Blame {
		c := f.blame[b.Slot]
		if c == nil {
			c = &blameCell{}
			f.blame[b.Slot] = c
		}
		c.samples++
		c.totalNs += b.DelayNs
		if b.DelayNs > c.maxNs {
			c.maxNs = b.DelayNs
		}
		c.hist.Record(b.DelayNs)
	}
	f.mu.Unlock()
}

// reset drops the buffered spans and the blame table (Metrics.Reset).
func (f *flightRecorder) reset() {
	f.mu.Lock()
	f.spans = f.spans[:0]
	f.head = 0
	f.blame = map[int]*blameCell{}
	f.mu.Unlock()
}

// mark records a point event as a zero-duration span stamped now, on gp
// or (gp == 0) on a fresh ID of its own — unrelated events must not
// share a flow chain. A disarmed recorder drops the event. Cold: every
// caller is a rare transition.
func (m *Metrics) mark(kind SpanKind, track string, gp uint64, count int, label string) {
	fr := m.recorder()
	if fr == nil {
		return
	}
	if gp == 0 {
		gp = NextGP()
	}
	now := m.now()
	fr.record(FlightSpan{GP: gp, Kind: kind, Track: track,
		StartNs: now, EndNs: now, Count: count, Label: label})
}

// counts returns the number of spans buffered and the number the ring
// has overwritten since it was armed or last reset.
func (f *flightRecorder) counts() (buffered int, overwritten uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.spans), f.head - uint64(len(f.spans))
}

// FlightLen returns the number of spans currently buffered.
func (m *Metrics) FlightLen() int {
	if fr := m.recorder(); fr != nil {
		n, _ := fr.counts()
		return n
	}
	return 0
}

// FlightSnapshot returns the buffered spans oldest-first (nil when the
// recorder is off). Blame slices are shared with the ring, not copied;
// treat them as read-only.
func (m *Metrics) FlightSnapshot() []FlightSpan {
	fr := m.recorder()
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]FlightSpan, 0, len(fr.spans))
	if len(fr.spans) < cap(fr.spans) {
		out = append(out, fr.spans...)
		return out
	}
	c := uint64(cap(fr.spans))
	for i := uint64(0); i < c; i++ {
		out = append(out, fr.spans[(fr.head+i)%c])
	}
	return out
}

// BlameEntry is one reader slot's aggregate blame account: how many
// waits it delayed, the cumulative and worst-case delay, and the log₂
// delay distribution.
type BlameEntry struct {
	Slot    int         `json:"slot"`
	Samples uint64      `json:"samples"`
	TotalNs int64       `json:"total_ns"`
	MaxNs   int64       `json:"max_ns"`
	DelayNs HistSummary `json:"delay_ns"`
}

// TopBlame returns the k worst offender slots by cumulative delay,
// descending (all slots when k <= 0 or exceeds the table). Nil when the
// recorder is off or nothing has been blamed.
func (m *Metrics) TopBlame(k int) []BlameEntry {
	fr := m.recorder()
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	out := make([]BlameEntry, 0, len(fr.blame))
	for slot, c := range fr.blame {
		out = append(out, BlameEntry{
			Slot:    slot,
			Samples: c.samples,
			TotalNs: c.totalNs,
			MaxNs:   c.maxNs,
			DelayNs: summarize(&c.hist),
		})
	}
	fr.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].TotalNs != out[b].TotalNs {
			return out[a].TotalNs > out[b].TotalNs
		}
		return out[a].Slot < out[b].Slot
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// BlameStart opens a blame sample for one reader slot's wait loop: it
// returns the clock reading to hand back to BlameSample, or 0 when the
// recorder is off (BlameSample then no-ops). Engines call it the first
// time a per-slot scan observes an open covered critical section.
func (m *Metrics) BlameStart(sp *WaitSpan) int64 {
	if m == nil || sp.fr == nil {
		return 0
	}
	return m.now()
}

// BlameSample closes a blame sample opened by BlameStart, charging
// now-startNs of wait delay to slot. A zero startNs (recorder off at
// BlameStart) records nothing.
func (m *Metrics) BlameSample(sp *WaitSpan, slot int, startNs int64) {
	if startNs == 0 {
		return
	}
	sp.blame = append(sp.blame, BlameSample{Slot: slot, DelayNs: m.now() - startNs})
}
