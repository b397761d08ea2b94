// Command obssmoke is the CI gate for the live export plane: it builds
// every engine flavor with metrics attached, drives a little traffic,
// serves prcu.ObsHandler on a loopback listener, scrapes /metrics,
// /debug/prcu/health and /debug/prcu/tracez over real HTTP, and exits
// non-zero if any scrape fails, comes back empty, /metrics is missing a
// flavor's series, tracez is missing the grace-period span chain, or
// the health report is missing the flight recorder's blame section.
// ci.sh runs it after the unit suites; it needs no curl.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"prcu"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: OK")
}

func run() error {
	// One engine per flavor, auto-registered under its engine name, with
	// enough traffic that waits and sections carry data.
	names := make([]string, 0, len(prcu.Flavors()))
	for _, f := range prcu.Flavors() {
		m := prcu.NewMetrics()
		m.SetSectionSampleShift(0)
		r := prcu.MustNew(f, prcu.Options{Metrics: m})
		names = append(names, r.Name())
		rd, err := r.Register()
		if err != nil {
			return fmt.Errorf("%s: Register: %w", r.Name(), err)
		}
		for i := 0; i < 8; i++ {
			rd.Enter(prcu.Value(i))
			rd.Exit(prcu.Value(i))
		}
		for i := 0; i < 3; i++ {
			r.WaitForReaders(prcu.All())
		}
		rd.Unregister()
	}

	// Flight-recorder traffic: rebind the EER name to an engine with the
	// recorder armed, retire through a reclaimer so tracez carries a full
	// retire → coalesce → wait → callback chain, and hold one section
	// open across a wait so the blame aggregation has a sample.
	fm := prcu.NewMetrics()
	fr := prcu.MustNew(prcu.FlavorEER, prcu.Options{Metrics: fm, FlightRecorder: true})
	flightEngine := fr.Name()
	rec := prcu.NewReclaimer(fr, prcu.ReclaimConfig{Shards: 1, Metrics: fm})
	rec.Retire(struct{}{}, prcu.All(), 64, nil)
	rec.Flush()
	entered := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		rd, err := fr.Register()
		if err != nil {
			return
		}
		rd.Enter(prcu.Value(1))
		close(entered)
		time.Sleep(20 * time.Millisecond)
		rd.Exit(prcu.Value(1))
		rd.Unregister()
	}()
	<-entered
	fr.WaitForReaders(prcu.All()) // blocks on the held section: blame lands
	<-exited
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rec.CloseCtx(cctx); err != nil {
		return fmt.Errorf("reclaimer close: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := &http.Server{Handler: prcu.ObsHandler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	metrics, err := scrape(base + "/metrics")
	if err != nil {
		return err
	}
	for _, n := range names {
		series := fmt.Sprintf("prcu_waits_total{engine=%q}", n)
		if !strings.Contains(metrics, series) {
			return fmt.Errorf("/metrics missing %s", series)
		}
	}
	for _, fam := range []string{"prcu_wait_duration_seconds_bucket", "prcu_reclaim_pending", "le=\"+Inf\"",
		"prcu_flight_overwritten_spans_total"} {
		if !strings.Contains(metrics, fam) {
			return fmt.Errorf("/metrics missing %s", fam)
		}
	}

	health, err := scrape(base + "/debug/prcu/health")
	if err != nil {
		return err
	}
	if !strings.Contains(health, `"status": "ok"`) {
		return fmt.Errorf("/debug/prcu/health not ok: %s", health)
	}
	if !strings.Contains(health, `"blame"`) {
		return fmt.Errorf("/debug/prcu/health missing the blame section: %s", health)
	}

	if err := checkTracez(base, flightEngine); err != nil {
		return err
	}
	// An unknown-engine probe must 404 and name what *is* registered.
	return checkUnknownEngine(base, "/debug/prcu/tracez", flightEngine)
}

// checkTracez scrapes the flight recorder's Chrome-trace endpoint and
// verifies it parses, every event carries the required fields, and the
// full grace-period span chain the reclaimer drove is present.
func checkTracez(base, engine string) error {
	body, err := scrape(base + "/debug/prcu/tracez?engine=" + engine)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return fmt.Errorf("/debug/prcu/tracez is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("/debug/prcu/tracez has no traceEvents")
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				return fmt.Errorf("/debug/prcu/tracez event missing %q: %v", field, ev)
			}
		}
		if name, _ := ev["name"].(string); ev["ph"] == "X" {
			seen[name] = true
		}
	}
	for _, kind := range []string{"retire", "coalesce", "wait", "callback"} {
		if !seen[kind] {
			return fmt.Errorf("/debug/prcu/tracez missing a %q span (saw %v)", kind, seen)
		}
	}
	return nil
}

// checkUnknownEngine verifies a per-engine endpoint rejects an
// unregistered name with 404 and lists the names that would work.
func checkUnknownEngine(base, path, knownEngine string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + path + "?engine=no-such-engine")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("GET %s?engine=no-such-engine = %d, want 404", path, resp.StatusCode)
	}
	if !strings.Contains(string(body), "registered:") || !strings.Contains(string(body), knownEngine) {
		return fmt.Errorf("%s 404 body does not list registered engines: %s", path, body)
	}
	return nil
}

// scrape GETs url and fails on non-200 or an empty body.
func scrape(url string) (string, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if len(body) == 0 {
		return "", fmt.Errorf("GET %s returned an empty body", url)
	}
	return string(body), nil
}
