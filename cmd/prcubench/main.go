// Command prcubench regenerates the evaluation of "Predicate RCU: An RCU
// for Scalable Concurrent Updates" (Arbel & Morrison, PPoPP 2015): one
// subcommand per figure, plus parameter ablations and an everything run.
//
// Usage:
//
//	prcubench [flags] fig1|fig5|fig6|fig7|fig8|fig9|ablation|stats|reclaim|blame|all
//
// The stats subcommand runs the mixed workload with the observability
// layer attached and dumps each engine's internal metrics: grace-period
// latency histograms, predicate selectivity, wait resolution and sampled
// reader-section durations. The blame subcommand arms the flight
// recorder, plants one deterministically slow reader via chaos fault
// injection, and reports whether the recorder's per-slot blame convicts
// exactly that reader (-monitor-for sizes the run).
//
// With -serve ADDR any subcommand also serves the live export plane
// while it runs — Prometheus /metrics, /debug/prcu/tracez and
// /debug/prcu/health — over the engines the experiment constructs; rates
// over the run are a scraper's rate() over /metrics:
//
//	prcubench -serve 127.0.0.1:9090 stats      # scrape /metrics mid-run
//	prcubench -serve 127.0.0.1:9090 reclaim    # watch backlog gauges live
//
// The defaults are scaled for a laptop-class host; use the flags to dial
// the experiment back up to the paper's methodology (3-second windows,
// 5 runs, 1..64 threads, a 2e6 key space, a 1e6-element hash table):
//
//	prcubench -duration 3s -runs 5 -threads 1,2,4,8,16,24,32,40,48,56,64 \
//	          -large-keys 2000000 -hash-elements 1048576 all
//
// For CI smoke runs, -quick shrinks every parameter to seconds-scale and
// -json emits each table as one JSON object per line on stdout:
//
//	prcubench -quick -json fig1
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"prcu"
	"prcu/internal/bench"
)

func main() {
	var (
		threadsFlag  = flag.String("threads", "1,2,4,8,16", "comma-separated thread counts to sweep")
		duration     = flag.Duration("duration", 150*time.Millisecond, "measurement window per data point")
		runs         = flag.Int("runs", 3, "repetitions per point (median reported)")
		smallKeys    = flag.Uint64("small-keys", 20000, "small key space (paper: 20000)")
		largeKeys    = flag.Uint64("large-keys", 200000, "large key space (paper: 2000000)")
		hashElements = flag.Uint64("hash-elements", 1<<14, "figure 9 table population, power of two x4 (paper: ~1e6)")
		includeLF    = flag.Bool("lftree", false, "include the LF-Tree baseline in figure 5/7 tables")
		csvPath      = flag.String("csv", "", "also write every table as CSV to this file")
		jsonOut      = flag.Bool("json", false, "write tables as JSON Lines on stdout instead of text (progress goes to stderr)")
		quick        = flag.Bool("quick", false, "smoke-test preset: tiny windows, 1 run, small key spaces (explicit flags still override)")
		serve        = flag.String("serve", "", "serve the live export plane (/metrics, /debug/prcu/*) on this address for the duration of the run")
		monitorFor   = flag.Duration("monitor-for", 10*time.Second, "blame subcommand: total time to run the workload the slow reader is planted in")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prcubench [flags] %s\n\n", subcommands)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	if *quick {
		// A preset for CI smoke runs: every figure exercises its full code
		// path, but each data point is tiny. Flags the user passed
		// explicitly win over the preset.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["threads"] {
			*threadsFlag = "1,2"
		}
		if !set["duration"] {
			*duration = 20 * time.Millisecond
		}
		if !set["runs"] {
			*runs = 1
		}
		if !set["small-keys"] {
			*smallKeys = 2000
		}
		if !set["large-keys"] {
			*largeKeys = 8000
		}
		if !set["hash-elements"] {
			*hashElements = 1 << 10
		}
		if !set["monitor-for"] {
			*monitorFor = 2 * time.Second
		}
	}

	cfg := bench.DefaultConfig(os.Stdout)
	cfg.Duration = *duration
	cfg.Runs = *runs
	cfg.SmallKeys = *smallKeys
	cfg.LargeKeys = *largeKeys
	cfg.HashElements = *hashElements
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prcubench:", err)
		os.Exit(2)
	}
	cfg.Threads = threads
	if *jsonOut {
		// Machine-readable mode: tables go to stdout as JSON Lines; the
		// human-readable text (and any stats dumps) moves to stderr.
		cfg.JSON = os.Stdout
		cfg.Out = os.Stderr
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prcubench:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.CSV = f
	}

	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prcubench:", err)
			os.Exit(1)
		}
		defer ln.Close()
		// Engines constructed from here on carry registered metrics the
		// handler can see; the listener dies with the process.
		cfg.Observe = true
		fmt.Fprintf(os.Stderr, "serving /metrics and /debug/prcu/* on http://%s\n", ln.Addr())
		go http.Serve(ln, prcu.ObsHandler())
	}

	start := time.Now()
	if err := dispatch(flag.Arg(0), cfg, *includeLF, *monitorFor); err != nil {
		fmt.Fprintln(os.Stderr, "prcubench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(cfg.Out, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

// subcommands is the canonical experiment list, shared by the usage
// text and the unknown-subcommand error.
const subcommands = "fig1|fig5|fig6|fig7|fig8|fig9|ablation|stats|reclaim|blame|all"

func dispatch(cmd string, cfg bench.Config, includeLF bool, monitorFor time.Duration) error {
	switch cmd {
	case "fig1":
		return bench.Fig1(cfg)
	case "fig5":
		return bench.Fig5(cfg, includeLF)
	case "fig6":
		return bench.Fig6(cfg)
	case "fig7":
		return bench.Fig7(cfg, includeLF)
	case "fig8":
		return bench.Fig8(cfg)
	case "fig9":
		return bench.Fig9(cfg)
	case "ablation":
		return bench.Ablation(cfg)
	case "stats":
		return bench.Stats(cfg)
	case "reclaim":
		return bench.Reclaim(cfg)
	case "blame":
		return bench.Blame(cfg, monitorFor)
	case "all":
		for _, f := range []func() error{
			func() error { return bench.Fig1(cfg) },
			func() error { return bench.Fig5(cfg, includeLF) },
			func() error { return bench.Fig6(cfg) },
			func() error { return bench.Fig7(cfg, includeLF) },
			func() error { return bench.Fig8(cfg) },
			func() error { return bench.Fig9(cfg) },
			func() error { return bench.Ablation(cfg) },
			func() error { return bench.Stats(cfg) },
			func() error { return bench.Reclaim(cfg) },
		} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want %s)", cmd, subcommands)
	}
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list")
	}
	return out, nil
}
