// Package bench regenerates the PRCU paper's evaluation (§6): one driver
// per figure, each printing the same rows and series the paper plots.
// Absolute numbers differ from the paper's 64-hardware-thread Opteron —
// especially on small hosts where goroutines interleave rather than run in
// parallel — but the comparisons the paper draws (which engine wins per
// workload, how wait-for-readers time collapses under PRCU, where the
// crossovers sit) are reproduced by the same experiment structure.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"prcu"
	"prcu/citrus"
	"prcu/internal/stats"
	"prcu/internal/workload"
)

// Config carries the global experiment parameters, a scaled-down-by-default
// version of §6.1's methodology (3-second runs, 5 repetitions, 64 threads,
// key spaces 2e4 and 2e6) that the prcubench CLI can dial back up.
type Config struct {
	Threads   []int         // thread counts to sweep (paper: 1..64)
	Duration  time.Duration // measurement window per point (paper: 3s)
	Runs      int           // repetitions; the median is reported (paper: 5)
	SmallKeys uint64        // small key space (paper: 2e4 -> 10K-node tree)
	LargeKeys uint64        // large key space (paper: 2e6 -> 1M-node tree)
	// HashElements is Figure 9's table population (paper: 1e6 at load
	// factor 4, key range twice the population). Must be a power of two.
	HashElements uint64
	Out          io.Writer
	// CSV, when non-nil, additionally receives every table in CSV form
	// for plotting.
	CSV io.Writer
	// JSON, when non-nil, additionally receives every table as one JSON
	// object per line (JSON Lines) for machine consumption.
	JSON io.Writer
	// Observe, when set, attaches a fresh metrics collector to every
	// engine the drivers construct and registers it in the export plane
	// under the engine's name, so a live listener (prcubench -serve) can
	// watch the run. Rebuilt engines rebind their name, keeping one
	// stable series per engine across sweep points.
	Observe bool
}

// DefaultConfig returns parameters sized so the full suite completes in
// minutes on a laptop-class host.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Threads:      []int{1, 2, 4, 8, 16},
		Duration:     150 * time.Millisecond,
		Runs:         3,
		SmallKeys:    2e4,
		LargeKeys:    2e5,
		HashElements: 1 << 14,
		Out:          out,
	}
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// maxThreads returns the largest configured thread count.
func (c Config) maxThreads() int {
	m := 1
	for _, t := range c.Threads {
		if t > m {
			m = t
		}
	}
	return m
}

// Engine couples an RCU constructor with the citrus Domain that presents
// searches to it, mirroring the per-engine configuration of §6. The
// constructors take no sizing argument: the reader registry grows on
// demand, so a sweep never has to predict its thread count.
type Engine struct {
	Name   string
	New    func() prcu.RCU
	Domain func() citrus.Domain
}

// Engines returns the RCU lineup of the paper's figures, in their order,
// followed by the post-paper baselines — one entry per Flavors() flavor.
func Engines() []Engine { return Config{}.engines() }

// options returns the engine-construction options the drivers share.
// With Observe set, each call carries a fresh metrics collector, which
// construction auto-registers in the export plane under the engine's
// name.
func (c Config) options() prcu.Options {
	if !c.Observe {
		return prcu.Options{}
	}
	return prcu.Options{Metrics: prcu.NewMetrics()}
}

// engineSpec is the per-flavor benchmark configuration: the display name
// the figure drivers key on (fig8 excludes "Tree RCU", fig9 requires
// "Time RCU") and the citrus Domain presenting searches to the engine.
// Predicate-aware flavors get real domains; plain-RCU baselines get the
// wildcard domain, mirroring §6's per-engine setup.
type engineSpec struct {
	name   string
	domain func() citrus.Domain
}

func compressed1024() citrus.Domain { return citrus.CompressedDomain(1024) }

var engineSpecs = map[prcu.Flavor]engineSpec{
	prcu.FlavorEER:    {name: "EER-PRCU", domain: citrus.FuncDomain},
	prcu.FlavorD:      {name: "D-PRCU", domain: compressed1024},
	prcu.FlavorDEER:   {name: "DEER-PRCU", domain: compressed1024},
	prcu.FlavorTime:   {name: "Time RCU", domain: citrus.WildcardDomain},
	prcu.FlavorTree:   {name: "Tree RCU", domain: citrus.WildcardDomain},
	prcu.FlavorURCU:   {name: "URCU", domain: citrus.WildcardDomain},
	prcu.FlavorDist:   {name: "Dist RCU", domain: citrus.WildcardDomain},
	prcu.FlavorSRCU:   {name: "SRCU", domain: citrus.WildcardDomain},
	prcu.FlavorPacked: {name: "Packed RCU", domain: citrus.WildcardDomain},
}

// engines returns the benchmark lineup built with this config's options.
// It is derived from Flavors() so a new engine cannot silently miss the
// figures: a flavor without a benchmark spec is a hard failure, not a
// skipped row.
func (c Config) engines() []Engine {
	flavors := prcu.Flavors()
	out := make([]Engine, 0, len(flavors))
	for _, f := range flavors {
		spec, ok := engineSpecs[f]
		if !ok {
			panic(fmt.Sprintf("bench: flavor %q has no benchmark spec; add it to engineSpecs", f))
		}
		f := f
		out = append(out, Engine{
			Name:   spec.name,
			New:    func() prcu.RCU { return prcu.MustNew(f, c.options()) },
			Domain: spec.domain,
		})
	}
	return out
}

// Set abstracts the search trees under comparison (CITRUS under each RCU
// engine, Opt-Tree, LF-Tree) behind the benchmark's operation interface.
type Set interface {
	// NewThread returns a per-goroutine operation context.
	NewThread() (SetThread, error)
}

// SetThread is one worker's view of a Set.
type SetThread interface {
	Contains(k uint64) bool
	Insert(k, v uint64) bool
	Delete(k uint64) bool
	Close()
}

// prefill inserts distinct uniform keys until the set holds keyRange/2
// keys, the paper's initial condition.
func prefill(s Set, keyRange uint64) error {
	th, err := s.NewThread()
	if err != nil {
		return err
	}
	defer th.Close()
	rng := workload.NewRNG(0xfeedface)
	target := keyRange / 2
	for n := uint64(0); n < target; {
		if th.Insert(rng.Intn(keyRange), 0) {
			n++
		}
	}
	return nil
}

// runMix measures the throughput of one (set, mix, threads) point.
func runMix(s Set, mix workload.Mix, keyRange uint64, threads int, d time.Duration) (float64, error) {
	mix.Validate()
	ths := make([]SetThread, threads)
	for i := range ths {
		th, err := s.NewThread()
		if err != nil {
			for j := 0; j < i; j++ {
				ths[j].Close()
			}
			return 0, err
		}
		ths[i] = th
	}
	res := workload.Run(threads, d, func(w int, rng *workload.RNG) int {
		th := ths[w]
		k := rng.Intn(keyRange)
		switch mix.Pick(rng) {
		case workload.OpContains:
			th.Contains(k)
		case workload.OpInsert:
			th.Insert(k, k)
		default:
			th.Delete(k)
		}
		return 1
	})
	for _, th := range ths {
		th.Close()
	}
	return res.Throughput(), nil
}

// medianOf runs f cfg.Runs times and returns the median result.
func (c Config) medianOf(f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, c.Runs)
	for i := 0; i < c.Runs; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return stats.Median(vals), nil
}

// table formats an aligned series table: one row per thread count, one
// column per curve, matching the paper's plot structure.
type table struct {
	title   string
	unit    string
	columns []string
	rows    []tableRow
}

type tableRow struct {
	label string
	cells []float64
}

func (t *table) addRow(label string, cells []float64) {
	t.rows = append(t.rows, tableRow{label: label, cells: cells})
}

// emit writes the table to the config's text output and, when configured,
// its CSV and JSON streams.
func (t *table) emit(c Config) {
	t.write(c.Out)
	if c.CSV != nil {
		t.csv(c.CSV)
	}
	if c.JSON != nil {
		t.json(c.JSON)
	}
}

func (t *table) write(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s ===\n", t.title)
	if t.unit != "" {
		fmt.Fprintf(w, "(%s)\n", t.unit)
	}
	width := 12
	fmt.Fprintf(w, "%-10s", "threads")
	for _, c := range t.columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 10+width*len(t.columns)))
	for _, r := range t.rows {
		fmt.Fprintf(w, "%-10s", r.label)
		for _, v := range r.cells {
			fmt.Fprintf(w, "%*s", width, formatValue(v))
		}
		fmt.Fprintln(w)
	}
}

// json emits the table as one JSON object on a single line. Encoding a
// table can only fail on a broken writer, in which case later emits fail
// the same way; errors are deliberately not propagated mid-benchmark.
func (t *table) json(w io.Writer) {
	type jsonRow struct {
		Label string    `json:"label"`
		Cells []float64 `json:"cells"`
	}
	obj := struct {
		Title   string    `json:"title"`
		Unit    string    `json:"unit,omitempty"`
		Columns []string  `json:"columns"`
		Rows    []jsonRow `json:"rows"`
	}{Title: t.title, Unit: t.unit, Columns: t.columns}
	for _, r := range t.rows {
		obj.Rows = append(obj.Rows, jsonRow{Label: r.label, Cells: r.cells})
	}
	if b, err := json.Marshal(obj); err == nil {
		b = append(b, '\n')
		w.Write(b)
	}
}

// csv emits the table as CSV for plotting.
func (t *table) csv(w io.Writer) {
	fmt.Fprintf(w, "# %s (%s)\n", t.title, t.unit)
	fmt.Fprintf(w, "threads,%s\n", strings.Join(t.columns, ","))
	for _, r := range t.rows {
		fmt.Fprint(w, r.label)
		for _, v := range r.cells {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
