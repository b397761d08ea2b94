// Package obshttp is the live export plane over the obs registry: every
// engine registered with obs.Register (prcu.RegisterMetrics, or
// automatically by Options.Metrics) is served on three endpoints, one per
// question —
//
//	GET /metrics            Prometheus text exposition (v0.0.4): every counter,
//	                        gauge and histogram; rates are the scraper's rate()
//	GET /debug/prcu/tracez  flight-recorder spans as Chrome trace JSON (?engine=X)
//	GET /debug/prcu/health  stall/backlog-aware status (200 ok, 503 degraded)
//
// It is pull-only and stdlib-only: scraping takes Snapshots, which read
// the recording structures atomically, so serving traffic costs the
// engines nothing between scrapes.
package obshttp

import "net/http"

// Handler returns the export-plane handler with all three endpoints
// mounted at their canonical paths. Each call returns an independent
// handler (the health endpoint keeps per-handler rate-window state);
// mount one per server.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", get(metricsHandler))
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
