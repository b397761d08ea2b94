// Command benchmark is the repository's benchmark: five closed-loop
// workloads over the library's public surface, measured end to end and
// layer by layer from outside. See README.md beside this file.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload W -trace 0  one workload's end-to-end metrics
//	go run ./benchmark -workload W -trace 1  one workload's per-layer metrics
//	go run ./benchmark compare A.json B.json two recorded runs against the bounds
//	go run ./benchmark manifest              BENCHMARK.json as the tables define it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the file -out writes and compare reads.
type report struct {
	Header    map[string]string          `json:"header"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compare(args[1:], stdout, stderr)
		case "manifest":
			stdout.Write(manifest())
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with one JSON result line")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "length of each timed run")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "", "write the full report as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans as Chrome trace-event JSON to this file")
	noProbes := fs.Bool("no-probes", false, "kv_churn: retire no probes (the probe-perturbation guard)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-trace-out FILE] [-no-probes]")
		return 2
	}
	// The load is two closed-loop clients; on one CPU the numbers would
	// measure the Go scheduler, not the library.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stderr, "benchmark: needs at least 2 CPUs, this host has %d\n", runtime.NumCPU())
		return 1
	}
	runtime.GOMAXPROCS(2)

	dur := time.Duration(*seconds * float64(time.Second))
	hdr := header()
	fmt.Fprintf(stdout, "# prcu benchmark: %s\n", formatHeader(hdr))
	fmt.Fprintf(stdout, "# seed %d, %.3g s timed per run, closed loop, 2 clients\n", *seed, *seconds)

	rep := &report{Header: hdr, Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadReport{}}
	var spans []namedSpans
	failed := false

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		wr := &workloadReport{}
		rep.Workloads[w.name] = wr
		var last map[string]stat
		if *trace == 0 {
			r := runPass(w, false, *seed, passTiming(dur), *noProbes, nil)
			printEndToEnd(stdout, r)
			wr.absorb(r)
			wr.EndToEnd = pickEndToEnd(r)
			last = wr.EndToEnd
		} else {
			ref, tr := tracedRun(w, *seed, dur, *noProbes, runProbes(dur*35/100))
			printPerLayer(stdout, w, ref, tr, nil)
			wr.absorb(tr)
			wr.PerLayer = pickPerLayer(tr)
			last = wr.PerLayer
			spans = append(spans, namedSpans{w.name, tr.spans})
		}
		failed = !wr.Correct
		if code := writeFiles(rep, spans, *out, *traceOut, stderr); code != 0 {
			return code
		}
		// The driver's line: exactly these keys, and nothing after it.
		line := struct {
			Correct   bool                 `json:"correct"`
			Attempted int64                `json:"attempted"`
			Failed    int64                `json:"failed"`
			Metrics   map[string]driverVal `json:"metrics"`
		}{wr.Correct, wr.Attempted, wr.Failed, map[string]driverVal{}}
		for k, s := range last {
			line.Metrics[k] = driverVal{s.Value, s.Unit}
		}
		b, _ := json.Marshal(line) // plain numbers and strings
		fmt.Fprintf(stdout, "%s\n", b)
		if failed {
			return 1
		}
		return 0
	}

	// Every workload: untraced for the end-to-end metrics, then the
	// isolated probes once, then each workload traced.
	for _, w := range workloads {
		r := runPass(w, false, *seed, passTiming(dur), *noProbes, nil)
		printEndToEnd(stdout, r)
		wr := &workloadReport{EndToEnd: pickEndToEnd(r)}
		wr.absorb(r)
		rep.Workloads[w.name] = wr
	}
	fmt.Fprintf(stdout, "\n== isolated probes ==\n")
	probes := runProbes(dur * 35 / 100)
	for _, k := range sortedKeys(probes) {
		fmt.Fprintf(stdout, "  %-36s %12.4g %s\n", k, probes[k], unitOf(k))
	}
	for _, w := range workloads {
		ref, tr := tracedRun(w, *seed, dur, *noProbes, probes)
		printPerLayer(stdout, w, ref, tr, probes)
		wr := rep.Workloads[w.name]
		wr.absorb(tr)
		wr.PerLayer = pickPerLayer(tr)
		spans = append(spans, namedSpans{w.name, tr.spans})
	}
	fmt.Fprintf(stdout, "\n== summary ==\n")
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		fmt.Fprintf(stdout, "  %-18s attempted_ops %-12d failed_ops %d\n", w.name, wr.Attempted, wr.Failed)
		failed = failed || !wr.Correct
	}
	if code := writeFiles(rep, spans, *out, *traceOut, stderr); code != 0 {
		return code
	}
	if failed {
		fmt.Fprintln(stdout, "FAIL: a correctness check failed")
		return 1
	}
	return 0
}

type driverVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// absorb adds a pass's checks to the workload's record.
func (wr *workloadReport) absorb(r *passResult) {
	wr.Attempted += r.attempted
	wr.Failed += r.failed
	wr.Correct = wr.Failed == 0 && wr.Attempted > 0
}

// pickEndToEnd returns exactly the declared end-to-end metrics.
func pickEndToEnd(r *passResult) map[string]stat {
	out := map[string]stat{}
	for _, d := range endToEnd {
		s := r.e2e[d.Name]
		s.Unit = d.Unit
		out[d.Name] = s
	}
	return out
}

// pickPerLayer returns exactly the declared per-layer metrics; one whose
// layer is not on the workload's path reads 0.
func pickPerLayer(r *passResult) map[string]stat {
	out := map[string]stat{}
	for _, d := range perLayer {
		out[d.Name] = stat{Value: r.layer[d.Name], Unit: d.Unit}
	}
	return out
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func header() map[string]string {
	h := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h["commit"] = s.Value
			}
		}
	}
	return h
}

func formatHeader(h map[string]string) string {
	return fmt.Sprintf("nproc %s, GOMAXPROCS %s, %s, cpu %q, commit %s", h["nproc"], h["gomaxprocs"], h["go"], h["cpu"], h["commit"])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func printEndToEnd(w io.Writer, r *passResult) {
	fmt.Fprintf(w, "\n== %s (untraced) ==\n", r.workload)
	for _, d := range endToEnd {
		s := r.e2e[d.Name]
		fmt.Fprintf(w, "  %-18s %14.6g %-5s  Q1 %-12.6g Q3 %-12.6g n=%d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
	}
	for _, pr := range r.parts {
		if pr.label != "" {
			fmt.Fprintf(w, "  [%-6s] %.4g sections/s, %.4g cycles/s; section p50 %.4g ns; wait p50 %.4g, p99 %.4g, p99.9 %.4g, max %.4g ns\n", pr.label,
				pr.e2e["read_ops_per_s"].Value, pr.e2e["update_ops_per_s"].Value, pr.e2e["read_p50_ns"].Value,
				pr.e2e["wait_p50_ns"].Value, pr.e2e["wait_p99_ns"].Value, pr.tails["wait"][0], pr.tails["wait"][1])
			continue
		}
		for _, c := range sortedKeys(pr.tails) {
			fmt.Fprintf(w, "  %-6s p99 %.6g ns, p99.9 %.6g ns, max %.6g ns\n", c, pr.e2e[c+"_p99_ns"].Value, pr.tails[c][0], pr.tails[c][1])
		}
	}
	printChecks(w, r)
}

func printChecks(w io.Writer, r *passResult) {
	fmt.Fprintf(w, "  attempted_ops %d, failed_ops %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", n)
	}
}

// printPerLayer prints a traced run, leaving out the metrics in skip:
// the isolated probes, which a full run prints once and not under every
// workload.
func printPerLayer(w io.Writer, wl *workloadDef, ref, tr *passResult, skip map[string]float64) {
	fmt.Fprintf(w, "\n== %s (traced) ==\n", wl.name)
	fmt.Fprintf(w, "  untraced reference %.6g op/s, traced %.6g op/s\n", ref.e2e["ops_per_s"].Value, tr.e2e["ops_per_s"].Value)
	fmt.Fprintf(w, "  Enter/Exit pairs are counted, not timed, and costed at the flavor's isolated enter_exit_ns\n")
	fmt.Fprintf(w, "  a reclaimer's waits run on its own goroutines: core.wait_share is then beside, not inside, the workers' time\n")
	for _, d := range perLayer {
		if _, probe := skip[d.Name]; probe {
			continue
		}
		if v, ok := tr.layer[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %12.5g %s\n", d.Name, v, d.Unit)
		}
	}
	printChecks(w, tr)
}

func writeFiles(rep *report, spans []namedSpans, out, traceOut string, stderr io.Writer) int {
	if out != "" {
		b, _ := json.MarshalIndent(rep, "", "  ") // plain numbers and strings
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if traceOut != "" {
		if err := writeChromeTrace(traceOut, spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}
