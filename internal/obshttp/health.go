package obshttp

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"prcu/internal/obs"
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

		dt := now.Sub(ps.at)
		rt := obs.Delta(ps.snap, cur, dt)
		eh := engineHealth{
			Status:        "ok",
			WindowSeconds: dt.Seconds(),
			WaitsPerSec:   rt.WaitsPerSec,
			EntersPerSec:  rt.EntersPerSec,
			Selectivity:   rt.Selectivity,
			WaitP99Ns:     rt.WaitP99Ns,
			Stalls:        rt.Stalls,
			Backlog:       rt.ReclaimBacklog,
			BacklogSlope:  rt.BacklogSlope,
			OldestAgeNs:   rt.OldestAgeNs,
			Overloads:     rt.Overloads,
			FlightSpans:   cur.FlightLen,
			BlameSamples:  cur.BlameSamples,
			BlameNs:       cur.BlameNs,
			Blame:         cur.BlameTop,
		}
		if rt.Stalls > 0 {
			eh.Reasons = append(eh.Reasons, "grace-period stalls in window")
		}
		if rt.Overloads > 0 {
			eh.Reasons = append(eh.Reasons, "reclaimer hard-watermark overloads in window")
		}
		if rt.ReclaimBacklog > 0 && rt.BacklogSlope > 0 {
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
