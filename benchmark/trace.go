package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// namedSpans is one workload's traced spans.
type namedSpans struct {
	workload string
	spans    []span
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, the
// format /debug/prcu/tracez emits: one process per workload, one thread
// per worker. A wait is recorded by the engine decorator, which does
// not know its caller; it is drawn under the sampled operation that
// encloses it in time, and on a thread of its own when none does (a
// reclaimer's wait, or a wait inside an operation that was not sampled).
func writeChromeTrace(path string, all []namedSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n"+format, args...)
	}
	for pid, ns := range all {
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":%q}}`, pid, ns.workload)
		var ops, waits []span
		for _, s := range ns.spans {
			if s.worker >= 0 {
				ops = append(ops, s)
			} else {
				waits = append(waits, s)
			}
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
		for _, s := range ops {
			emit(`{"ph":"X","name":%q,"cat":"op","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				opNames[s.kind], pid, s.worker, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op)
		}
		for _, s := range waits {
			tid, parent := 99, uint64(0)
			i := sort.Search(len(ops), func(i int) bool { return ops[i].start > s.start })
			for j := i - 1; j >= 0 && j >= i-4; j-- {
				if ops[j].end >= s.end {
					tid, parent = int(ops[j].worker), ops[j].op
					break
				}
			}
			emit(`{"ph":"X","name":"core.wait","cat":"core","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"parent":%d}}`,
				pid, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
