// Package obshttp is the live export plane over the obs registry: every
// engine registered with obs.Register (prcu.RegisterMetrics, or
// automatically by Options.Metrics) is served on five endpoints —
//
//	GET /metrics            Prometheus text exposition (v0.0.4)
//	GET /debug/prcu/stats   full JSON Snapshot per engine
//	GET /debug/prcu/trace   flight-recorder spans, flat listing (?engine=X)
//	GET /debug/prcu/tracez  the same spans as Chrome trace JSON (?engine=X)
//	GET /debug/prcu/health  stall/backlog-aware status (200 ok, 503 degraded)
//
// It is pull-only and stdlib-only: scraping takes Snapshots, which read
// the recording structures atomically, so serving traffic costs the
// engines nothing between scrapes.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"prcu/internal/obs"
)

// Handler returns the export-plane handler with all five endpoints
// mounted at their canonical paths. Each call returns an independent
// handler (the health endpoint keeps per-handler rate-window state);
// mount one per server.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", get(metricsHandler))
	mux.HandleFunc("/debug/prcu/stats", get(statsHandler))
	mux.HandleFunc("/debug/prcu/trace", get(traceHandler))
	mux.HandleFunc("/debug/prcu/tracez", get(tracezHandler))
	mux.HandleFunc("/debug/prcu/health", get(newHealthState().serve))
	return mux
}

func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// snapshots collects (name, Snapshot) for every registered engine in
// sorted name order — one consistent pass shared by the endpoints.
func snapshots() (names []string, snaps []obs.Snapshot) {
	obs.EachRegistered(func(name string, m *obs.Metrics) {
		names = append(names, name)
		snaps = append(snaps, m.Snapshot())
	})
	return names, snaps
}

func statsHandler(w http.ResponseWriter, _ *http.Request) {
	names, snaps := snapshots()
	out := make(map[string]obs.Snapshot, len(names))
	for i, n := range names {
		out[n] = snaps[i]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// flightSpans resolves ?engine= for the two flight-recorder endpoints,
// replying 400 (parameter missing) or 404 (nothing bound to it) itself;
// ok is false once it has.
func flightSpans(w http.ResponseWriter, r *http.Request) (engine string, spans []obs.FlightSpan, ok bool) {
	engine = r.URL.Query().Get("engine")
	if engine == "" {
		http.Error(w, "missing ?engine= (registered: "+
			strings.Join(obs.RegisteredNames(), ", ")+")", http.StatusBadRequest)
		return "", nil, false
	}
	m := obs.Registered(engine)
	if m == nil {
		http.Error(w, fmt.Sprintf("no engine registered as %q (registered: %s)",
			engine, strings.Join(obs.RegisteredNames(), ", ")), http.StatusNotFound)
		return "", nil, false
	}
	return engine, m.FlightSnapshot(), true
}

// traceHandler lists one engine's flight-recorder contents flat, one
// span per line in recording order — the grep-able view of the ring that
// tracezHandler renders for a trace viewer.
func traceHandler(w http.ResponseWriter, r *http.Request) {
	engine, spans, ok := flightSpans(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("format") == "json" {
		// The embedded span's numeric kind is shadowed by its mnemonic.
		type event struct {
			obs.FlightSpan
			Kind string `json:"kind"`
		}
		out := struct {
			Engine string  `json:"engine"`
			Events []event `json:"events"`
		}{Engine: engine, Events: make([]event, 0, len(spans))}
		for _, sp := range spans {
			out.Events = append(out.Events, event{sp, sp.Kind.String()})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# engine %s: %d spans, oldest first; +offset from first span's start\n", engine, len(spans))
	if len(spans) == 0 {
		return
	}
	base := spans[0].StartNs
	for _, sp := range spans {
		fmt.Fprintf(w, "+%-12d %-14s gp=%-6d track=%-12s dur=%-10d count=%d",
			sp.StartNs-base, sp.Kind, sp.GP, sp.Track, sp.EndNs-sp.StartNs, sp.Count)
		if sp.Label != "" {
			fmt.Fprintf(w, " label=%q", sp.Label)
		}
		for _, b := range sp.Blame {
			fmt.Fprintf(w, " blame=%d:%d", b.Slot, b.DelayNs)
		}
		fmt.Fprintln(w)
	}
}
