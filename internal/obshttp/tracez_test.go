package obshttp

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/reclaim"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSpans is the synthetic flight-recorder content of the golden
// test: one complete grace period's causal chain (GP 42: retire →
// coalesce → wait → callback). All timestamps are fixed, so the rendered
// trace is byte-for-byte deterministic.
func goldenSpans() []obs.FlightSpan {
	return []obs.FlightSpan{
		{GP: 42, Kind: obs.SpanRetire, Track: "reclaim/0",
			StartNs: 1000, EndNs: 2000, Count: 1},
		{GP: 42, Kind: obs.SpanCoalesce, Track: "reclaim/0",
			StartNs: 2000, EndNs: 2500, Count: 1, Label: "all"},
		{GP: 42, Kind: obs.SpanWait, Track: "wait",
			StartNs: 2500, EndNs: 4500, Count: 3,
			Blame: []obs.BlameSample{{Slot: 2, DelayNs: 1800}}},
		{GP: 42, Kind: obs.SpanCallback, Track: "reclaim/0",
			StartNs: 4500, EndNs: 5000, Count: 1},
	}
}

// TestTracezGolden pins the Chrome-trace rendering: a synthesized
// grace-period chain must render to exactly the checked-in golden file,
// every event must carry the trace-event format's required fields, and
// the flow chains must pair up (one "s", one terminal "f" with bp:"e",
// "t" between, timestamps non-decreasing). Regenerate with -update.
func TestTracezGolden(t *testing.T) {
	m := obs.New()
	m.EnableFlightRecorder(64)
	for _, sp := range goldenSpans() {
		m.FlightRecord(sp)
	}
	obs.Register("golden", m)
	t.Cleanup(func() { obs.Register("golden", nil) })

	code, body := scrape(t, "/debug/prcu/tracez?engine=golden")
	if code != 200 {
		t.Fatalf("GET tracez = %d: %s", code, body)
	}

	goldenPath := filepath.Join("testdata", "tracez_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if body != string(want) {
		t.Errorf("tracez output drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", body, want)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("tracez is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("tracez rendered no events")
	}

	type flowState struct {
		s, t, f int
		lastTs  float64
		fLast   bool
	}
	flows := map[float64]*flowState{}
	completes := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing required field %q: %v", field, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			name, _ := ev["name"].(string)
			completes[name] = true
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
		case "s", "t", "f":
			id, ok := ev["id"].(float64)
			if !ok {
				t.Fatalf("flow event missing id: %v", ev)
			}
			fs := flows[id]
			if fs == nil {
				fs = &flowState{}
				flows[id] = fs
			}
			ts := ev["ts"].(float64)
			if ts < fs.lastTs {
				t.Errorf("flow %v: timestamps regress (%v after %v)", id, ts, fs.lastTs)
			}
			fs.lastTs = ts
			fs.fLast = ph == "f"
			switch ph {
			case "s":
				fs.s++
			case "t":
				fs.t++
			case "f":
				fs.f++
				if bp, _ := ev["bp"].(string); bp != "e" {
					t.Errorf("flow finish without bp:e: %v", ev)
				}
			}
		case "M":
		default:
			t.Errorf("unexpected phase %q: %v", ph, ev)
		}
	}
	// The full GP 42 chain must be present as complete events.
	for _, kind := range []string{"retire", "coalesce", "wait", "callback"} {
		if !completes[kind] {
			t.Errorf("missing %q complete event", kind)
		}
	}
	// The GP 42 chain must pair: exactly one start and one terminal
	// finish.
	if len(flows) != 1 {
		t.Fatalf("want one flow chain for GP 42, got ids %v", flows)
	}
	for id, fs := range flows {
		if fs.s != 1 || fs.f != 1 || !fs.fLast {
			t.Errorf("flow %v: want one s and one terminal f, got s=%d t=%d f=%d (f last: %v)",
				id, fs.s, fs.t, fs.f, fs.fLast)
		}
	}
}

// TestTracezEngineErrors pins the per-engine endpoint's misuse replies:
// a missing engine parameter is a 400 and an unknown engine a 404, both
// naming the engines that are registered.
func TestTracezEngineErrors(t *testing.T) {
	m := obs.New()
	obs.Register("present", m)
	t.Cleanup(func() { obs.Register("present", nil) })

	const path = "/debug/prcu/tracez"
	code, body := scrape(t, path+"?engine=absent")
	if code != 404 {
		t.Errorf("GET %s?engine=absent = %d, want 404", path, code)
	}
	if !strings.Contains(body, "registered:") || !strings.Contains(body, "present") {
		t.Errorf("%s 404 body does not list registered engines: %q", path, body)
	}
	code, body = scrape(t, path)
	if code != 400 {
		t.Errorf("GET %s (no engine) = %d, want 400", path, code)
	}
	if !strings.Contains(body, "present") {
		t.Errorf("%s 400 body does not list registered engines: %q", path, body)
	}
}

// TestTracezConcurrentScrape races the tracez endpoint against live
// waits, reads, and reclaimer retires on every engine flavor with the
// flight recorder armed — the scrape must always return valid JSON and
// the recorder's locking must hold up under -race.
func TestTracezConcurrentScrape(t *testing.T) {
	mk := map[string]func() core.RCU{
		"EER":    func() core.RCU { return core.NewEER(nil) },
		"D":      func() core.RCU { return core.NewD(64) },
		"DEER":   func() core.RCU { return core.NewDEER(4, nil) },
		"Time":   func() core.RCU { return core.NewTimeRCU(nil) },
		"URCU":   func() core.RCU { return core.NewURCU() },
		"Tree":   func() core.RCU { return core.NewTreeRCU() },
		"Dist":   func() core.RCU { return core.NewDistRCU() },
		"SRCU":   func() core.RCU { return core.NewSRCU() },
		"Packed": func() core.RCU { return core.NewPacked() },
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	names := make([]string, 0, len(mk))
	for name, f := range mk {
		name := "tracez-" + name
		names = append(names, name)
		r := f()
		m := obs.New()
		m.EnableFlightRecorder(256)
		r.(core.MetricsCarrier).SetMetrics(m)
		obs.Register(name, m)
		t.Cleanup(func() { obs.Register(name, nil) })

		rec := reclaim.New(r, reclaim.Config{Shards: 1, Metrics: m})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := rec.CloseCtx(ctx); err != nil {
				t.Errorf("%s: reclaimer close: %v", name, err)
			}
		})

		wg.Add(1)
		go func(r core.RCU) {
			defer wg.Done()
			rd, err := r.Register()
			if err != nil {
				return
			}
			defer rd.Unregister()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rd.Enter(core.Value(i % 8))
				rd.Exit(core.Value(i % 8))
			}
		}(r)
		wg.Add(1)
		go func(r core.RCU) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.WaitForReaders(core.All())
				rec.Retire(struct{}{}, core.All(), 64, nil)
			}
		}(r)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, name := range names {
			code, body := scrape(t, "/debug/prcu/tracez?engine="+name)
			if code != 200 {
				t.Fatalf("GET tracez engine=%s = %d: %s", name, code, body)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatalf("engine %s: tracez not valid JSON under concurrency: %v", name, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
