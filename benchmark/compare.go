package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// side is one argument of compare: one report, or several separated by
// commas whose per-metric median is taken.
type side struct {
	reports []*report
}

func loadSide(arg string) (*side, error) {
	s := &side{}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.reports = append(s.reports, r)
	}
	return s, nil
}

// metric returns the side's value for one end-to-end metric of one
// workload and its spread as a share of that value: between the runs'
// extremes when the side holds several runs, between the 1-s windows'
// quartiles when it holds one.
func (s *side) metric(workload, name string) (value, spread float64, ok bool) {
	var vals, spreads []float64
	for _, r := range s.reports {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		st, found := w.EndToEnd[name]
		if !found || st.Value == 0 {
			continue
		}
		vals = append(vals, st.Value)
		spreads = append(spreads, (st.Q3-st.Q1)/st.Value)
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	sort.Float64s(vals)
	value = quantileF(vals, 0.5)
	if len(vals) > 1 {
		return value, (vals[len(vals)-1] - vals[0]) / value, true
	}
	return value, spreads[0], true
}

// compare prints, per workload and end-to-end metric, both sides'
// values, how much worse B is than A, and the bound. A metric within
// its bound but with either side's spread beyond it is unresolved, not
// unchanged. The exit code is 1 when any metric breaches its bound or
// either side has a failed check.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b *side
		if b, err = loadSide(args[1]); err == nil {
			return compareSides(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
	return 2
}

func compareSides(a, b *side, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, s := range []*side{a, b} {
			for _, r := range s.reports {
				if wr := r.Workloads[w.name]; wr != nil && !wr.Correct {
					fmt.Fprintf(stdout, "%-18s failed_ops %d of %d attempted: FAIL\n", w.name, wr.Failed, wr.Attempted)
					code = 1
				}
			}
		}
		for _, d := range endToEnd {
			va, sa, okA := a.metric(w.name, d.Name)
			vb, sb, okB := b.metric(w.name, d.Name)
			if !okA || !okB {
				continue
			}
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "BREACH"
				code = 1
			case math.Max(sa, sb) > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*math.Max(sa, sb))
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", w.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
