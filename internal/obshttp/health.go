package obshttp

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"prcu/internal/obs"
	"prcu/internal/stats"
)

// healthState is the per-handler rate window: the previous sample taken
// for each engine, so each scrape reports what happened since the last
// one rather than since process start. The first scrape of an engine
// uses a zero baseline (rates since the handler was built).
type healthState struct {
	mu    sync.Mutex
	start time.Time
	prev  map[string]healthSample
}

type healthSample struct {
	at   time.Time
	snap obs.Snapshot
}

func newHealthState() *healthState {
	return &healthState{start: time.Now(), prev: map[string]healthSample{}}
}

// engineHealth is one engine's row in the health report: its status,
// why it is degraded (empty when ok), and the windowed rates the verdict
// was computed from.
type engineHealth struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`

	WindowSeconds float64 `json:"window_seconds"`
	WaitsPerSec   float64 `json:"waits_per_sec"`
	EntersPerSec  float64 `json:"enters_per_sec"`
	Selectivity   float64 `json:"selectivity"`
	WaitP99Ns     float64 `json:"wait_p99_ns"`
	Stalls        uint64  `json:"stalls"`
	Backlog       int64   `json:"backlog"`
	BacklogSlope  float64 `json:"backlog_slope_per_sec"`
	OldestAgeNs   int64   `json:"oldest_age_ns"`
	Overloads     uint64  `json:"overloads"`

	// Flight-recorder blame: populated only while the recorder is armed.
	// Blame lists the top offender slots by cumulative delay charged.
	FlightSpans  int              `json:"flight_spans,omitempty"`
	BlameSamples uint64           `json:"blame_samples,omitempty"`
	BlameNs      int64            `json:"blame_ns,omitempty"`
	Blame        []obs.BlameEntry `json:"blame,omitempty"`
}

// delta fills in the window a health row reports: what happened between
// two Snapshots of one engine taken dt apart (prev first), plus the
// backlog gauges at cur. A zero prev yields since-start rates. Counters
// that moved backwards — the Metrics was Reset, or the name rebound to a
// fresh collector between the samples — clamp to zero rather than go
// negative.
func delta(prev, cur obs.Snapshot, dt time.Duration) engineHealth {
	h := engineHealth{
		WindowSeconds: dt.Seconds(),
		Stalls:        sub(cur.Stalls, prev.Stalls),
		Backlog:       cur.ReclaimPending,
		OldestAgeNs:   cur.ReclaimOldestNs,
		Overloads: sub(cur.ReclaimBackpressure, prev.ReclaimBackpressure) +
			sub(cur.ReclaimInline, prev.ReclaimInline),
		WaitP99Ns: bucketP99(prev.WaitNs.Buckets, cur.WaitNs.Buckets),
	}
	if scanned := sub(cur.ReadersScanned, prev.ReadersScanned); scanned > 0 {
		h.Selectivity = float64(sub(cur.ReadersWaited, prev.ReadersWaited)) / float64(scanned)
	}
	if sec := dt.Seconds(); sec > 0 {
		h.WaitsPerSec = float64(sub(cur.Waits, prev.Waits)) / sec
		h.EntersPerSec = float64(sub(cur.Enters, prev.Enters)) / sec
		h.BacklogSlope = float64(cur.ReclaimPending-prev.ReclaimPending) / sec
	}
	return h
}

// sub is a monotone-counter delta clamped at zero.
func sub(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// bucketP99 estimates the 99th percentile of the samples cur's histogram
// gained since prev's, by the geometric midpoint of the bucket holding
// that rank — the estimator stats.Histogram.ApproxPercentile uses. Both
// bucket lists are ascending, keyed by lower bound.
func bucketP99(prev, cur []stats.Bucket) float64 {
	pm := make(map[int64]int64, len(prev))
	for _, b := range prev {
		pm[b.LoNs] = b.Count
	}
	gained := make([]int64, len(cur))
	var total int64
	for i, b := range cur {
		if c := b.Count - pm[b.LoNs]; c > 0 {
			gained[i] = c
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(0.99*float64(total))), 1)
	var seen int64
	for i, b := range cur {
		if seen += gained[i]; seen >= rank {
			return float64(max(b.LoNs, 1)) * math.Sqrt2
		}
	}
	return float64(cur[len(cur)-1].HiNs)
}

// serve reports 200 with status "ok" when every engine's window is
// clean, 503 with status "degraded" when any engine saw a stall report,
// a reclaimer hard-watermark overload, or a growing reclamation backlog
// in the window since the previous health scrape.
func (h *healthState) serve(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	engines := map[string]engineHealth{}
	degraded := false

	obs.EachRegistered(func(name string, m *obs.Metrics) {
		cur := m.Snapshot()
		h.mu.Lock()
		ps, ok := h.prev[name]
		if !ok {
			ps = healthSample{at: h.start}
		}
		h.prev[name] = healthSample{at: now, snap: cur}
		h.mu.Unlock()

		eh := delta(ps.snap, cur, now.Sub(ps.at))
		eh.Status = "ok"
		eh.FlightSpans, eh.BlameSamples, eh.BlameNs, eh.Blame = cur.FlightLen, cur.BlameSamples, cur.BlameNs, cur.BlameTop
		if eh.Stalls > 0 {
			eh.Reasons = append(eh.Reasons, "grace-period stalls in window")
		}
		if eh.Overloads > 0 {
			eh.Reasons = append(eh.Reasons, "reclaimer hard-watermark overloads in window")
		}
		if eh.Backlog > 0 && eh.BacklogSlope > 0 {
			eh.Reasons = append(eh.Reasons, "reclamation backlog growing")
		}
		if len(eh.Reasons) > 0 {
			eh.Status = "degraded"
			degraded = true
		}
		engines[name] = eh
	})

	status, code := "ok", http.StatusOK
	if degraded {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Status  string                  `json:"status"`
		Engines map[string]engineHealth `json:"engines"`
	}{status, engines})
}
