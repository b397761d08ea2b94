package obs

import (
	"fmt"
	"io"
	"strings"

	"prcu/internal/stats"
)

// HistSummary is a point-in-time digest of one latency histogram.
type HistSummary struct {
	Count   int64
	SumNs   int64
	MeanNs  float64
	P50Ns   float64
	P90Ns   float64
	P99Ns   float64
	Buckets []stats.Bucket
}

func summarize(h *stats.Histogram) HistSummary {
	return HistSummary{
		Count:   h.Count(),
		SumNs:   h.Sum(),
		MeanNs:  h.Mean(),
		P50Ns:   h.ApproxPercentile(50),
		P90Ns:   h.ApproxPercentile(90),
		P99Ns:   h.ApproxPercentile(99),
		Buckets: h.Buckets(),
	}
}

// Snapshot is an aggregated, JSON-marshalable copy of a Metrics — the
// only way metrics leave the recording structures. Per-reader lanes are
// summed here, never on the hot path.
type Snapshot struct {
	// Enabled is false for the nil Metrics (observability off).
	Enabled bool

	// Waits counts WaitForReaders calls; WaitNs is their engine-internal
	// latency distribution.
	Waits  uint64
	WaitNs HistSummary

	// ReadersScanned / ReadersWaited are the raw selectivity inputs:
	// slots or counter nodes examined by wait scans, and those with an
	// open covered critical section the wait actually blocked on. The
	// counter kernel (D-PRCU, SRCU) counts counter nodes, except that a
	// D-PRCU wait on a general predicate that visits the readers instead
	// of the table counts the reader slots it visits.
	ReadersScanned uint64
	ReadersWaited  uint64
	// Selectivity = ReadersWaited / ReadersScanned (0 when nothing was
	// scanned). Low values are PRCU working as designed: most of what a
	// wait looks at, it does not have to wait for.
	Selectivity float64

	// Parks counts waited-on readers whose wait loop exhausted its spin
	// budget and fell back to scheduler yields; SpinResolved is the rest.
	Parks        uint64
	SpinResolved uint64

	// Counter-node drain outcomes (D-PRCU, SRCU only).
	DrainsOptimistic uint64
	DrainsGate       uint64
	DrainsPiggyback  uint64

	// Stalls counts watchdog stall reports (rate-limited at the engine).
	// Each report names the one reader slot or counter node its wait was
	// blocked on.
	Stalls uint64

	// Deferred-reclamation (internal/reclaim) state. The two gauges are
	// the live backlog at snapshot time — callbacks accepted but not yet
	// resolved, and their caller-declared bytes; with watermarks
	// configured they never exceed MaxPending/MaxBytes. Retired counts
	// accepted callbacks, Freed those run after a completed grace period,
	// Dropped those abandoned by a bounded shutdown. Graces is the number
	// of grace periods the batch coalescer actually issued (Retired/Graces
	// is the batching win). Expedited counts soft-watermark/Flush-forced
	// flushes; Backpressure and Inline count hard-watermark overloads by
	// how the caller degraded.
	ReclaimPending      int64
	ReclaimBytes        int64
	ReclaimRetired      uint64
	ReclaimFreed        uint64
	ReclaimDropped      uint64
	ReclaimGraces       uint64
	ReclaimExpedited    uint64
	ReclaimBackpressure uint64
	ReclaimInline       uint64
	// ReclaimBatch is the flush batch-size distribution (unitless — the
	// histogram's Ns fields read as callback counts); ReclaimFlushNs is
	// the flush latency distribution.
	ReclaimBatch   HistSummary
	ReclaimFlushNs HistSummary
	// ReclaimOldestNs is the age of the oldest unresolved callback at
	// snapshot time (0 = empty backlog or no age probe installed) — the
	// data-age gauge: how stale the most overdue deferred free is.
	ReclaimOldestNs int64

	// Enters is the total number of read-side critical sections across
	// all reader lanes, including readers that have since unregistered
	// (their counts retire when a slot is recycled); SectionNs is the
	// sampled duration distribution.
	Enters    uint64
	SectionNs HistSummary

	// FlightLen is the number of grace-period flight-recorder spans
	// currently buffered (0 when the recorder is off), and
	// FlightOverwritten the number the ring has lost to wrap-around
	// since it was armed or last Reset.
	FlightLen         int
	FlightOverwritten uint64
	// BlameSamples / BlameNs total the flight recorder's per-slot blame
	// attribution across all slots; BlameTop is the worst offender slots
	// by cumulative delay (at most 5 here — ask TopBlame for more).
	BlameSamples uint64
	BlameNs      int64
	BlameTop     []BlameEntry
}

// Snapshot aggregates the current metrics. Safe on a nil receiver and
// safe concurrently with recording (counters are read atomically;
// histograms may be mid-update by a sample or two).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled:          true,
		Waits:            m.waits.Load(),
		WaitNs:           summarize(&m.waitNs),
		ReadersScanned:   m.readersScanned.Load(),
		ReadersWaited:    m.readersWaited.Load(),
		Parks:            m.parks.Load(),
		DrainsOptimistic: m.drainsOptimistic.Load(),
		DrainsGate:       m.drainsGate.Load(),
		DrainsPiggyback:  m.drainsPiggyback.Load(),
		Stalls:           m.stalls.Load(),
		SectionNs:        summarize(&m.sectionNs),

		ReclaimPending:      m.reclaimPending.Load(),
		ReclaimBytes:        m.reclaimBytes.Load(),
		ReclaimRetired:      m.reclaimRetired.Load(),
		ReclaimFreed:        m.reclaimFreed.Load(),
		ReclaimDropped:      m.reclaimDropped.Load(),
		ReclaimGraces:       m.reclaimGraces.Load(),
		ReclaimExpedited:    m.reclaimExpedited.Load(),
		ReclaimBackpressure: m.reclaimBackpressure.Load(),
		ReclaimInline:       m.reclaimInline.Load(),
		ReclaimBatch:        summarize(&m.reclaimBatch),
		ReclaimFlushNs:      summarize(&m.reclaimFlushNs),
		ReclaimOldestNs:     m.ReclaimOldestNs(),
	}
	if s.ReadersScanned > 0 {
		s.Selectivity = float64(s.ReadersWaited) / float64(s.ReadersScanned)
	}
	if s.ReadersWaited > s.Parks {
		s.SpinResolved = s.ReadersWaited - s.Parks
	}
	s.Enters = m.retiredEnters.Load()
	m.laneMu.Lock()
	for _, l := range m.lanes {
		s.Enters += l.enters.Load()
	}
	m.laneMu.Unlock()
	if fr := m.flight.Load(); fr != nil {
		s.FlightLen, s.FlightOverwritten = fr.counts()
		if all := m.TopBlame(0); len(all) > 0 {
			for _, b := range all {
				s.BlameSamples += b.Samples
				s.BlameNs += b.TotalNs
			}
			if len(all) > 5 {
				all = all[:5]
			}
			s.BlameTop = all
		}
	}
	return s
}

// Dump writes a human-readable report titled name to w: the counters,
// the selectivity, and ASCII bucket bars for the two latency histograms.
func (s Snapshot) Dump(w io.Writer, name string) {
	fmt.Fprintf(w, "\n--- %s ---\n", name)
	if !s.Enabled {
		fmt.Fprintln(w, "observability disabled")
		return
	}
	fmt.Fprintf(w, "grace periods:    %d waits", s.Waits)
	if s.Waits > 0 {
		fmt.Fprintf(w, "  mean %s  p50 %s  p99 %s",
			fmtNs(s.WaitNs.MeanNs), fmtNs(s.WaitNs.P50Ns), fmtNs(s.WaitNs.P99Ns))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "selectivity:      %d waited-for / %d scanned = %.4f\n",
		s.ReadersWaited, s.ReadersScanned, s.Selectivity)
	fmt.Fprintf(w, "wait resolution:  %d spin-resolved, %d parked (yielded to scheduler)\n",
		s.SpinResolved, s.Parks)
	if s.DrainsOptimistic+s.DrainsGate+s.DrainsPiggyback > 0 {
		fmt.Fprintf(w, "counter drains:   %d optimistic, %d gate-protocol, %d piggybacked\n",
			s.DrainsOptimistic, s.DrainsGate, s.DrainsPiggyback)
	}
	if s.Stalls > 0 {
		fmt.Fprintf(w, "stalls detected:  %d reports\n", s.Stalls)
	}
	if s.ReclaimRetired > 0 || s.ReclaimInline > 0 {
		fmt.Fprintf(w, "reclamation:      %d retired, %d freed, %d dropped; backlog %d cbs / %d bytes\n",
			s.ReclaimRetired, s.ReclaimFreed, s.ReclaimDropped, s.ReclaimPending, s.ReclaimBytes)
		fmt.Fprintf(w, "reclaim batching: %d grace periods for %d callbacks", s.ReclaimGraces, s.ReclaimRetired)
		if s.ReclaimBatch.Count > 0 {
			fmt.Fprintf(w, "  mean batch %.1f  flush p99 %s",
				s.ReclaimBatch.MeanNs, fmtNs(s.ReclaimFlushNs.P99Ns))
		}
		fmt.Fprintln(w)
		if s.ReclaimExpedited+s.ReclaimBackpressure+s.ReclaimInline > 0 {
			fmt.Fprintf(w, "reclaim overload: %d expedited flushes, %d backpressure waits, %d inline waits\n",
				s.ReclaimExpedited, s.ReclaimBackpressure, s.ReclaimInline)
		}
	}
	fmt.Fprintf(w, "reader sections:  %d entered, %d sampled", s.Enters, s.SectionNs.Count)
	if s.SectionNs.Count > 0 {
		fmt.Fprintf(w, "  mean %s  p50 %s  p99 %s",
			fmtNs(s.SectionNs.MeanNs), fmtNs(s.SectionNs.P50Ns), fmtNs(s.SectionNs.P99Ns))
	}
	fmt.Fprintln(w)
	if len(s.WaitNs.Buckets) > 0 {
		fmt.Fprintln(w, "wait latency histogram:")
		dumpBuckets(w, s.WaitNs.Buckets)
	}
	if len(s.SectionNs.Buckets) > 0 {
		fmt.Fprintln(w, "reader section duration histogram (sampled):")
		dumpBuckets(w, s.SectionNs.Buckets)
	}
	if s.FlightLen > 0 {
		fmt.Fprintf(w, "flight recorder:  %d spans buffered, %d overwritten\n",
			s.FlightLen, s.FlightOverwritten)
	}
	if s.BlameSamples > 0 {
		fmt.Fprintf(w, "reader blame:     %d samples, %s cumulative delay\n",
			s.BlameSamples, fmtNs(float64(s.BlameNs)))
		for _, b := range s.BlameTop {
			fmt.Fprintf(w, "  slot %4d: %6d samples  total %-10s max %s\n",
				b.Slot, b.Samples, fmtNs(float64(b.TotalNs)), fmtNs(float64(b.MaxNs)))
		}
	}
}

func dumpBuckets(w io.Writer, bs []stats.Bucket) {
	var max int64
	for _, b := range bs {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range bs {
		bar := int(40 * b.Count / max)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  %10s - %-10s %8d %s\n",
			fmtNs(float64(b.LoNs)), fmtNs(float64(b.HiNs)), b.Count, strings.Repeat("#", bar))
	}
}

// fmtNs renders nanoseconds at a human scale.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
