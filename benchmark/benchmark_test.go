package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"prcu"
)

func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on fewer than 2 CPUs")
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables in
// metrics.go and checks the contract's limits on names and counts.
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Fatalf("BENCHMARK.json differs from `go run ./benchmark manifest`; regenerate it")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   *bool                `json:"correct"`
	Attempted *int64               `json:"attempted"`
	Failed    *int64               `json:"failed"`
	Metrics   map[string]driverVal `json:"metrics"`
}

func runDriver(t *testing.T, args ...string) (int, driverLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return code, line
}

// TestSmoke runs every workload for 300 ms, untraced and traced, and
// checks that each run reports exactly the declared metrics, that no
// check failed (among them kv_churn's guard against probes that get
// grace periods of their own), and that the per-layer names declared
// and the names produced are the same set.
func TestSmoke(t *testing.T) {
	needTwoCPUs(t)
	produced, declared := map[string]bool{}, map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	probes := runProbes(100 * time.Millisecond)
	for _, w := range workloads {
		code, line := runDriver(t, "-workload", w.name, "-seconds", "0.3", "-seed", "7", "-trace", "0")
		if code != 0 || !*line.Correct || *line.Failed != 0 || *line.Attempted < 1 {
			t.Errorf("%s untraced: exit %d, correct %v, failed %d of %d", w.name, code, *line.Correct, *line.Failed, *line.Attempted)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s untraced: %d metrics, want the %d end-to-end ones", w.name, len(line.Metrics), len(endToEnd))
		}
		// Present and well-formed; not "> 0": beside another package's
		// tests on two CPUs a 300-ms run can have windows in which a
		// worker never ran, and a median over those is 0. The 15-s runs
		// the driver makes are where a 0 would be a defect.
		for _, m := range endToEnd {
			v, ok := line.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value < 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.name, m.Name, v, ok)
			}
		}

		// Traced, through tracedRun so that what the instance emitted is
		// visible beside what the tables declare.
		_, tr := tracedRun(w, 7, 300*time.Millisecond, false, probes)
		if tr.failed != 0 {
			t.Errorf("%s traced: failed %d of %d: %v", w.name, tr.failed, tr.attempted, tr.notes)
		}
		for k := range tr.layer {
			if !declared[k] {
				t.Errorf("%s emits undeclared per-layer metric %s", w.name, k)
			}
			produced[k] = true
		}
	}
	for _, m := range perLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", m.Name)
		}
	}

	// One traced run the driver's way: the result line carries exactly
	// the declared per-layer metrics, produced or not.
	code, line := runDriver(t, "-workload", "tree_write_heavy", "-seconds", "0.3", "-trace", "1")
	if code != 0 || !*line.Correct || len(line.Metrics) != len(perLayer) {
		t.Errorf("traced driver run: exit %d, correct %v, %d metrics, want %d", code, *line.Correct, len(line.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("traced driver run: per-layer metric %s = %+v (present %v)", m.Name, v, ok)
		}
	}
}

// TestLitmusHasTeeth runs engine_sweep's litmus on the no-op engine,
// whose waits return at once: the checker must catch it, and the run
// must exit non-zero. A checker that cannot fail is caught here.
func TestLitmusHasTeeth(t *testing.T) {
	needTwoCPUs(t)
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(append([]*workloadDef(nil), saved...), &workloadDef{
		name: "nop_sweep",
		parts: []part{{label: "nop", flavor: prcu.FlavorPacked, build: func(p *pass) instance {
			return buildSweep(p, prcu.NewNop(0), false)
		}}},
	})
	for deadline := time.Now().Add(5 * time.Second); ; {
		code, line := runDriver(t, "-workload", "nop_sweep", "-seconds", "0.2", "-trace", "0")
		if *line.Failed > 0 {
			if code == 0 || *line.Correct {
				t.Fatalf("litmus failed %d times but the run exited %d with correct=%v", *line.Failed, code, *line.Correct)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the litmus never failed on an engine that does not wait")
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		rep := report{Workloads: map[string]*workloadReport{"kv_churn": {
			Correct: true, Attempted: 10,
			EndToEnd: map[string]stat{"ops_per_s": {Value: ops, Unit: "op/s", Q1: ops * 0.99, Q3: ops * 1.01}},
		}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 980), write("c.json", 700)
	var out, errw bytes.Buffer
	if code := run([]string{"compare", base, same}, &out, &errw); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("2%% slower is within the bound: exit %d\n%s%s", code, out.String(), errw.String())
	}
	out.Reset()
	if code := run([]string{"compare", base, slow}, &out, &errw); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("30%% slower must breach: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", base + "," + same + "," + slow, base}, &out, &errw); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set spread over 30%% must be unresolved: exit %d\n%s", code, out.String())
	}
}
