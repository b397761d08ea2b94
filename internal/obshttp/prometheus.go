package obshttp

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"prcu/internal/obs"
)

// metricsHandler renders every registered engine in the Prometheus text
// exposition format, version 0.0.4: one metric family per PRCU quantity,
// one series per engine under an engine="name" label. Durations are
// converted to seconds (base units, per convention); the batch-size
// histogram is unitless.
func metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	writePrometheus(bw)
	bw.Flush()
}

func writePrometheus(w *bufio.Writer) {
	names, snaps := snapshots()
	f := famWriter{w: w, names: names, snaps: snaps}

	f.counter("prcu_waits_total", "Completed WaitForReaders calls.",
		func(s obs.Snapshot) float64 { return float64(s.Waits) })
	f.histogram("prcu_wait_duration_seconds", "WaitForReaders latency.",
		1e-9, func(s obs.Snapshot) obs.HistSummary { return s.WaitNs })
	f.counter("prcu_readers_scanned_total", "Reader slots or counter nodes examined by wait scans.",
		func(s obs.Snapshot) float64 { return float64(s.ReadersScanned) })
	f.counter("prcu_readers_waited_total", "Scanned readers the wait actually blocked on (selectivity numerator).",
		func(s obs.Snapshot) float64 { return float64(s.ReadersWaited) })
	f.counter("prcu_wait_parks_total", "Waited-on readers resolved by scheduler yields after the spin budget.",
		func(s obs.Snapshot) float64 { return float64(s.Parks) })
	f.counter("prcu_wait_spin_resolved_total", "Waited-on readers resolved within the spin budget.",
		func(s obs.Snapshot) float64 { return float64(s.SpinResolved) })

	f.drains()

	f.counter("prcu_stalls_total", "Grace-period stall watchdog reports.",
		func(s obs.Snapshot) float64 { return float64(s.Stalls) })

	f.counter("prcu_reader_sections_total", "Read-side critical sections entered.",
		func(s obs.Snapshot) float64 { return float64(s.Enters) })
	f.histogram("prcu_section_duration_seconds", "Sampled read-side critical-section duration.",
		1e-9, func(s obs.Snapshot) obs.HistSummary { return s.SectionNs })

	f.gauge("prcu_reclaim_pending", "Deferred-reclamation backlog: callbacks retired but not yet resolved.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimPending) })
	f.gauge("prcu_reclaim_pending_bytes", "Caller-declared bytes behind the reclamation backlog.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimBytes) })
	f.counter("prcu_reclaim_retired_total", "Callbacks accepted by the reclaimer.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimRetired) })
	f.counter("prcu_reclaim_freed_total", "Callbacks run after a completed grace period.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimFreed) })
	f.counter("prcu_reclaim_dropped_total", "Callbacks abandoned by a bounded shutdown.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimDropped) })
	f.counter("prcu_reclaim_graces_total", "Grace periods issued by the batch coalescer.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimGraces) })
	f.counter("prcu_reclaim_expedited_total", "Soft-watermark or Flush-forced expedited flushes.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimExpedited) })
	f.counter("prcu_reclaim_backpressure_total", "Retirements blocked at the hard watermark.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimBackpressure) })
	f.counter("prcu_reclaim_inline_total", "Retirements degraded to an inline grace period at the hard watermark.",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimInline) })
	f.histogram("prcu_reclaim_batch_size", "Callbacks resolved per reclaimer flush.",
		1, func(s obs.Snapshot) obs.HistSummary { return s.ReclaimBatch })
	f.histogram("prcu_reclaim_flush_duration_seconds", "Reclaimer flush latency (grace period plus callback runs).",
		1e-9, func(s obs.Snapshot) obs.HistSummary { return s.ReclaimFlushNs })
	f.gauge("prcu_reclaim_oldest_age_seconds", "Age of the oldest unresolved reclamation callback (0 = empty backlog).",
		func(s obs.Snapshot) float64 { return float64(s.ReclaimOldestNs) * 1e-9 })

	f.gauge("prcu_flight_buffered_spans", "Spans currently held in the engine's flight recorder (0 when the recorder is off).",
		func(s obs.Snapshot) float64 { return float64(s.FlightLen) })
	f.counter("prcu_flight_overwritten_spans_total", "Spans the flight recorder's ring has overwritten since it was armed or reset.",
		func(s obs.Snapshot) float64 { return float64(s.FlightOverwritten) })
	f.counter("prcu_blame_samples_total", "Per-slot reader-blame samples recorded by blocked waits.",
		func(s obs.Snapshot) float64 { return float64(s.BlameSamples) })
	f.counter("prcu_blame_seconds_total", "Cumulative reader delay charged to slots by blocked waits.",
		func(s obs.Snapshot) float64 { return float64(s.BlameNs) * 1e-9 })
	f.blame()
}

// famWriter emits one metric family at a time across every engine, so
// HELP/TYPE headers appear exactly once per family as the format
// requires.
type famWriter struct {
	w     *bufio.Writer
	names []string
	snaps []obs.Snapshot
}

func (f *famWriter) header(name, help, typ string) {
	fmt.Fprintf(f.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func (f *famWriter) simple(name, help, typ string, v func(obs.Snapshot) float64) {
	f.header(name, help, typ)
	for i, n := range f.names {
		fmt.Fprintf(f.w, "%s{engine=\"%s\"} %s\n", name, escapeLabel(n), fmtFloat(v(f.snaps[i])))
	}
}

func (f *famWriter) counter(name, help string, v func(obs.Snapshot) float64) {
	f.simple(name, help, "counter", v)
}

func (f *famWriter) gauge(name, help string, v func(obs.Snapshot) float64) {
	f.simple(name, help, "gauge", v)
}

// drains is the one multi-label family: counter-node drain outcomes by
// kind (D-PRCU and SRCU populate it; other engines stay at zero).
func (f *famWriter) drains() {
	const name = "prcu_drains_total"
	f.header(name, "Counter-node drains by resolution kind.", "counter")
	for i, n := range f.names {
		s := f.snaps[i]
		e := escapeLabel(n)
		fmt.Fprintf(f.w, "%s{engine=\"%s\",kind=\"optimistic\"} %d\n", name, e, s.DrainsOptimistic)
		fmt.Fprintf(f.w, "%s{engine=\"%s\",kind=\"gate\"} %d\n", name, e, s.DrainsGate)
		fmt.Fprintf(f.w, "%s{engine=\"%s\",kind=\"piggyback\"} %d\n", name, e, s.DrainsPiggyback)
	}
}

// blame renders the per-slot blame families for engines whose flight
// recorder is (or was) armed: cumulative delay, sample count, worst
// single delay, and the per-slot delay histogram, all under a slot
// label. Only the Snapshot's top offenders are exported — the full
// per-slot map lives behind /debug/prcu/tracez and obs.TopBlame.
func (f *famWriter) blame() {
	type slotRow struct {
		engine string
		e      obs.BlameEntry
	}
	var rows []slotRow
	for i, n := range f.names {
		for _, be := range f.snaps[i].BlameTop {
			rows = append(rows, slotRow{n, be})
		}
	}
	if len(rows) == 0 {
		return
	}
	family := func(name, help, typ string, v func(obs.BlameEntry) float64) {
		f.header(name, help, typ)
		for _, r := range rows {
			fmt.Fprintf(f.w, "%s{engine=\"%s\",slot=\"%d\"} %s\n",
				name, escapeLabel(r.engine), r.e.Slot, fmtFloat(v(r.e)))
		}
	}
	family("prcu_blame_slot_seconds_total", "Cumulative delay charged to the reader slot by blocked waits (top offenders only).", "counter",
		func(e obs.BlameEntry) float64 { return float64(e.TotalNs) * 1e-9 })
	family("prcu_blame_slot_samples_total", "Blame samples charged to the reader slot (top offenders only).", "counter",
		func(e obs.BlameEntry) float64 { return float64(e.Samples) })
	family("prcu_blame_slot_max_seconds", "Worst single delay charged to the reader slot (top offenders only).", "gauge",
		func(e obs.BlameEntry) float64 { return float64(e.MaxNs) * 1e-9 })

	const hist = "prcu_blame_slot_delay_seconds"
	f.header(hist, "Per-slot distribution of delays charged by blocked waits (top offenders only).", "histogram")
	for _, r := range rows {
		h := r.e.DelayNs
		e, slot := escapeLabel(r.engine), r.e.Slot
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if b.HiNs == math.MaxInt64 {
				continue
			}
			fmt.Fprintf(f.w, "%s_bucket{engine=\"%s\",slot=\"%d\",le=\"%s\"} %d\n",
				hist, e, slot, fmtFloat(float64(b.HiNs)*1e-9), cum)
		}
		if h.Count > cum {
			cum = h.Count
		}
		fmt.Fprintf(f.w, "%s_bucket{engine=\"%s\",slot=\"%d\",le=\"+Inf\"} %d\n", hist, e, slot, cum)
		fmt.Fprintf(f.w, "%s_sum{engine=\"%s\",slot=\"%d\"} %s\n", hist, e, slot, fmtFloat(float64(h.SumNs)*1e-9))
		fmt.Fprintf(f.w, "%s_count{engine=\"%s\",slot=\"%d\"} %d\n", hist, e, slot, cum)
	}
}

// histogram renders one HistSummary per engine as a cumulative-bucket
// Prometheus histogram. The recorder's buckets are disjoint power-of-two
// ranges [LoNs, HiNs); each range's upper bound becomes an `le` bound
// (scaled — 1e-9 turns nanoseconds into seconds), counts accumulate, and
// the top catch-all bucket (HiNs == MaxInt64) folds into `+Inf`. Under
// concurrent recording the per-bucket sum can trail the histogram's own
// Count; the `+Inf` bucket and `_count` take the max so the invariants
// scrapers check (cumulative monotone, count == +Inf) hold regardless.
func (f *famWriter) histogram(name, help string, scale float64, v func(obs.Snapshot) obs.HistSummary) {
	f.header(name, help, "histogram")
	for i, n := range f.names {
		h := v(f.snaps[i])
		e := escapeLabel(n)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if b.HiNs == math.MaxInt64 {
				continue // catch-all range: represented by +Inf below
			}
			fmt.Fprintf(f.w, "%s_bucket{engine=\"%s\",le=\"%s\"} %d\n",
				name, e, fmtFloat(float64(b.HiNs)*scale), cum)
		}
		if h.Count > cum {
			cum = h.Count
		}
		fmt.Fprintf(f.w, "%s_bucket{engine=\"%s\",le=\"+Inf\"} %d\n", name, e, cum)
		fmt.Fprintf(f.w, "%s_sum{engine=\"%s\"} %s\n", name, e, fmtFloat(float64(h.SumNs)*scale))
		fmt.Fprintf(f.w, "%s_count{engine=\"%s\"} %d\n", name, e, cum)
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format; the call
// sites supply the surrounding quotes, so only the three escape-worthy
// characters are rewritten here.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// snapshots collects (name, Snapshot) for every registered engine in
// sorted name order, in one consistent pass.
func snapshots() (names []string, snaps []obs.Snapshot) {
	obs.EachRegistered(func(name string, m *obs.Metrics) {
		names = append(names, name)
		snaps = append(snaps, m.Snapshot())
	})
	return names, snaps
}
