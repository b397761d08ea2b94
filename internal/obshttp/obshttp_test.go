package obshttp

import (
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"prcu/internal/core"
	"prcu/internal/obs"
)

// engineNames are the 8 flavors the export plane must serve, as the
// registry sorts them.
var engineNames = []string{"D", "DEER", "Dist", "EER", "SRCU", "Time", "Tree", "URCU"}

// registerAllEngines builds every engine with metrics attached, drives
// enough traffic that waits, sections, and one reclaim flush have data,
// and registers each under its flavor name. Cleanup unbinds them so
// tests do not leak registrations into each other.
func registerAllEngines(t *testing.T) {
	t.Helper()
	mk := map[string]func() core.RCU{
		"EER":  func() core.RCU { return core.NewEER(nil) },
		"D":    func() core.RCU { return core.NewD(64) },
		"DEER": func() core.RCU { return core.NewDEER(4, nil) },
		"Time": func() core.RCU { return core.NewTimeRCU(nil) },
		"URCU": func() core.RCU { return core.NewURCU() },
		"Tree": func() core.RCU { return core.NewTreeRCU() },
		"Dist": func() core.RCU { return core.NewDistRCU() },
		"SRCU": func() core.RCU { return core.NewSRCU() },
	}
	for name, f := range mk {
		r := f()
		m := obs.New()
		m.SetSectionSampleShift(0)
		m.EnsureReaders(8)
		m.EnableFlightRecorder(256)
		r.(core.MetricsCarrier).SetMetrics(m)

		rd, err := r.Register()
		if err != nil {
			t.Fatalf("%s: Register: %v", name, err)
		}
		for i := 0; i < 10; i++ {
			rd.Enter(core.Value(i))
			rd.Exit(core.Value(i))
		}
		for i := 0; i < 3; i++ {
			r.WaitForReaders(core.All())
		}
		rd.Unregister()
		// Synthesize one reclaim flush so the reclaimer histograms carry
		// samples without standing up a full Reclaimer per engine.
		m.ReclaimEnqueue(64)
		m.ReclaimResolve(1, 0, 64)
		m.ReclaimFlush(1, 1, 1500, false)

		obs.Register(name, m)
		t.Cleanup(func() { obs.Register(name, nil) })
	}
}

// series is one parsed sample line of the exposition text.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition is the in-test scrape-format checker's parser: it
// splits the body into HELP/TYPE headers and sample lines, failing the
// test on anything malformed.
func parseExposition(t *testing.T, body string) (help, typ map[string]string, samples []series) {
	t.Helper()
	help, typ = map[string]string{}, map[string]string{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(rest) != 2 || rest[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			help[rest[0]] = rest[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(rest) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch rest[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, rest[1])
			}
			typ[rest[0]] = rest[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		samples = append(samples, parseSample(t, ln+1, line))
	}
	return help, typ, samples
}

func parseSample(t *testing.T, ln int, line string) series {
	t.Helper()
	s := series{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value: %q", ln, line)
	} else {
		s.name = rest[:i]
		if rest[i] == '{' {
			end := strings.Index(rest, "} ")
			if end < 0 {
				t.Fatalf("line %d: unterminated label set: %q", ln, line)
			}
			for _, pair := range splitLabels(rest[i+1 : end]) {
				eq := strings.Index(pair, "=")
				if eq < 0 {
					t.Fatalf("line %d: malformed label %q", ln, pair)
				}
				val := pair[eq+1:]
				if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
					t.Fatalf("line %d: unquoted label value %q", ln, pair)
				}
				s.labels[pair[:eq]] = unescapeLabel(val[1 : len(val)-1])
			}
			rest = rest[end+2:]
		} else {
			rest = rest[i+1:]
		}
	}
	v, err := parseValue(rest)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// splitLabels splits a{...} label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func unescapeLabel(s string) string {
	r := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	return r.Replace(s)
}

func parseValue(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func scrape(t *testing.T, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestMetricsExposition(t *testing.T) {
	registerAllEngines(t)
	code, body := scrape(t, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	help, typ, samples := parseExposition(t, body)

	// Every sample's family (stripping histogram suffixes) must carry
	// HELP and TYPE.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typ[b] == "histogram" {
				return b
			}
		}
		return name
	}
	for _, s := range samples {
		b := base(s.name)
		if help[b] == "" {
			t.Fatalf("series %s: family %s has no HELP", s.name, b)
		}
		if typ[b] == "" {
			t.Fatalf("series %s: family %s has no TYPE", s.name, b)
		}
		if s.labels["engine"] == "" {
			t.Fatalf("series %s: missing engine label", s.name)
		}
	}

	// All 8 engines appear, with the acceptance-critical families:
	// backlog gauges and wait/section/flush histograms.
	have := map[string]map[string]bool{} // family -> engine set
	for _, s := range samples {
		b := base(s.name)
		if have[b] == nil {
			have[b] = map[string]bool{}
		}
		have[b][s.labels["engine"]] = true
	}
	for _, fam := range []string{
		"prcu_waits_total", "prcu_reclaim_pending", "prcu_reclaim_pending_bytes",
		"prcu_wait_duration_seconds", "prcu_section_duration_seconds",
		"prcu_reclaim_flush_duration_seconds", "prcu_reclaim_batch_size",
	} {
		for _, eng := range engineNames {
			if !have[fam][eng] {
				t.Errorf("family %s: no series for engine %s", fam, eng)
			}
		}
	}

	checkHistograms(t, typ, samples)

	// Traffic actually landed: every engine's wait histogram counted the
	// 3 waits, and the flush histogram the 1 synthetic flush.
	for _, s := range samples {
		if s.name == "prcu_wait_duration_seconds_count" && s.value != 3 {
			t.Errorf("engine %s: wait count = %v, want 3", s.labels["engine"], s.value)
		}
		if s.name == "prcu_reclaim_flush_duration_seconds_count" && s.value != 1 {
			t.Errorf("engine %s: flush count = %v, want 1", s.labels["engine"], s.value)
		}
	}
}

// checkHistograms enforces the histogram invariants of the format: per
// series the `le` bounds strictly increase and end at +Inf, the
// cumulative counts are monotone, and _count equals the +Inf bucket.
func checkHistograms(t *testing.T, typ map[string]string, samples []series) {
	t.Helper()
	type hist struct {
		les    []float64
		counts []float64
		inf    float64
		hasInf bool
		count  float64
		hasCnt bool
		hasSum bool
	}
	hs := map[string]*hist{} // "family|engine"
	get := func(fam, eng string) *hist {
		k := fam + "|" + eng
		if hs[k] == nil {
			hs[k] = &hist{}
		}
		return hs[k]
	}
	for _, s := range samples {
		if b, ok := strings.CutSuffix(s.name, "_bucket"); ok && typ[b] == "histogram" {
			h := get(b, s.labels["engine"])
			le := s.labels["le"]
			if le == "+Inf" {
				h.inf, h.hasInf = s.value, true
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: unparsable le %q", s.name, le)
			}
			h.les = append(h.les, v)
			h.counts = append(h.counts, s.value)
		} else if b, ok := strings.CutSuffix(s.name, "_count"); ok && typ[b] == "histogram" {
			h := get(b, s.labels["engine"])
			h.count, h.hasCnt = s.value, true
		} else if b, ok := strings.CutSuffix(s.name, "_sum"); ok && typ[b] == "histogram" {
			get(b, s.labels["engine"]).hasSum = true
		}
	}
	keys := make([]string, 0, len(hs))
	for k := range hs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hs[k]
		if !h.hasInf {
			t.Errorf("%s: no +Inf bucket", k)
			continue
		}
		if !h.hasCnt || !h.hasSum {
			t.Errorf("%s: missing _count or _sum", k)
			continue
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				t.Errorf("%s: le bounds not increasing: %v", k, h.les)
			}
			if h.counts[i] < h.counts[i-1] {
				t.Errorf("%s: cumulative counts decrease: %v", k, h.counts)
			}
		}
		if n := len(h.counts); n > 0 && h.inf < h.counts[n-1] {
			t.Errorf("%s: +Inf bucket %v below last finite bucket %v", k, h.inf, h.counts[n-1])
		}
		if h.count != h.inf {
			t.Errorf("%s: _count %v != +Inf bucket %v", k, h.count, h.inf)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	m := obs.New()
	name := "we\"ird\\eng\nine"
	obs.Register(name, m)
	t.Cleanup(func() { obs.Register(name, nil) })
	code, body := scrape(t, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	want := `engine="we\"ird\\eng\nine"`
	if !strings.Contains(body, want) {
		t.Fatalf("escaped label %s not found in body", want)
	}
}

// TestHandlerEndpoints pins the export plane's surface, one endpoint per
// question: /metrics carries the counters, tracez the flight recorder,
// health the windowed verdict. /debug/prcu/stats and /debug/prcu/trace
// would restate /metrics and tracez, so they are not served.
func TestHandlerEndpoints(t *testing.T) {
	registerAllEngines(t)
	code, body := scrape(t, "/metrics")
	if code != 200 || !strings.Contains(body, `prcu_waits_total{engine="EER"} 3`) {
		t.Fatalf("GET /metrics = %d, want 200 with EER's 3 waits:\n%s", code, body)
	}
	code, body = scrape(t, "/debug/prcu/tracez?engine=EER")
	if code != 200 {
		t.Fatalf("GET tracez = %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("tracez not JSON: %v", err)
	}
	waits := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "wait" {
			waits++
		}
	}
	if waits != 3 {
		t.Fatalf("tracez shows %d wait spans, want EER's 3", waits)
	}
	if code, body := scrape(t, "/debug/prcu/health"); code != 200 {
		t.Fatalf("GET health = %d: %s", code, body)
	}
	for _, path := range []string{"/debug/prcu/stats", "/debug/prcu/trace?engine=EER"} {
		if code, _ := scrape(t, path); code != 404 {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	registerAllEngines(t)
	h := Handler()
	req := func() (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/prcu/health", nil))
		return rec.Code, rec.Body.String()
	}
	code, body := req()
	if code != 200 {
		t.Fatalf("healthy scrape = %d: %s", code, body)
	}
	if !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthy body: %s", body)
	}

	// A stall report in the window degrades the next scrape; the one
	// after (clean window) recovers.
	obs.Registered("EER").StallDetected(obs.WaitSpan{})
	code, body = req()
	if code != 503 || !strings.Contains(body, "grace-period stalls in window") {
		t.Fatalf("stalled scrape = %d: %s", code, body)
	}
	code, _ = req()
	if code != 200 {
		t.Fatalf("recovered scrape = %d", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	for _, path := range []string{"/metrics", "/debug/prcu/tracez", "/debug/prcu/health"} {
		rec := httptest.NewRecorder()
		Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
		if rec.Code != 405 {
			t.Fatalf("POST %s = %d, want 405", path, rec.Code)
		}
	}
}

func TestHandlerIndependentHealthWindows(t *testing.T) {
	registerAllEngines(t)
	a, b := Handler(), Handler()
	// Prime handler a's window, then stall: a sees the stall relative to
	// its primed sample; b's first scrape (zero baseline) sees it too —
	// both must degrade independently without sharing prev state.
	hA := func() int {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/prcu/health", nil))
		return rec.Code
	}
	hB := func() int {
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/prcu/health", nil))
		return rec.Code
	}
	if hA() != 200 {
		t.Fatal("a: priming scrape not ok")
	}
	obs.Registered("EER").StallDetected(obs.WaitSpan{})
	if hA() != 503 {
		t.Fatal("a: did not see the stall")
	}
	if hB() != 503 {
		t.Fatal("b: fresh handler did not see the stall from its zero baseline")
	}
	if hA() != 200 {
		t.Fatal("a: did not recover on clean window")
	}
}
