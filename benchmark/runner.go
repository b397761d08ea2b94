package main

import (
	"runtime"
	"sort"
	"time"

	"prcu"
)

// instance is one built workload part, run once and then checked.
type instance interface {
	// steppers returns the closed-loop clients, one goroutine each.
	steppers() []stepper
	// tracer returns the engine's counting decorator on a traced pass.
	tracer() *tracedRCU
	// finish releases what build acquired and runs the checks that need
	// the structure at rest. res is nil for an instance that never ran.
	finish(res *loopResult) (attempted, failed int64, notes []string)
	// layers returns the per-layer metrics only this instance can give.
	layers(res *loopResult, a acct) map[string]float64
}

// part is one engine's share of a workload. The structure workloads
// have one; engine_sweep has nine, run one after the other and combined
// by geometric mean.
type part struct {
	label  string
	flavor prcu.Flavor
	build  func(p *pass) instance
}

type workloadDef struct {
	name, why string
	parts     []part
}

// timing is the fixed shape of a pass.
type timing struct {
	warm, dur time.Duration
	// Set-up is repeated at least minSetups times and until setupFor has
	// passed; setup_s is the repetitions' median. A 0.2-ms set-up (nine
	// bare engines) needs many repetitions for a steady median, a 50-ms
	// one (a 10^5-node tree) few.
	minSetups int
	setupFor  time.Duration
}

const maxSetups = 100

// passTiming derives the pass shape from the run length: 2 s warm-up
// (less on runs too short for it), and set-up repeated five times or
// for 100 ms, whichever is longer.
func passTiming(dur time.Duration) timing {
	tm := timing{warm: 2 * time.Second, dur: dur, minSetups: 5, setupFor: 100 * time.Millisecond}
	if tm.warm > dur/4 {
		tm.warm = dur / 4
	}
	return tm
}

// acct is the additive bookkeeping of a traced pass, summed over parts.
type acct struct {
	ops        int64 // operations completed in the timed windows
	waits      int64
	waitNs     int64
	enters     int64
	eeNs       float64       // enters costed at the flavor's enter_exit_ns
	workerWall float64       // timed wall summed over workers
	opNs       float64       // workers' time inside library calls
	iterNs     float64       // sampled iteration time scaled up to every iteration
	kinds      [nOps]float64 // operations of each kind, scaled up from the sampled ones
	allocBytes uint64
	gcPauseNs  uint64
	dropped    int64 // spans and samples that found their buffer full
}

func (a *acct) add(b acct) {
	a.ops += b.ops
	a.waits += b.waits
	a.waitNs += b.waitNs
	a.enters += b.enters
	a.eeNs += b.eeNs
	a.workerWall += b.workerWall
	a.opNs += b.opNs
	a.iterNs += b.iterNs
	for k := range a.kinds {
		a.kinds[k] += b.kinds[k]
	}
	a.allocBytes += b.allocBytes
	a.gcPauseNs += b.gcPauseNs
	a.dropped += b.dropped
}

// partResult is one part's measurements.
type partResult struct {
	label string
	e2e   map[string]stat
	tails map[string][2]float64 // p99.9 and max per latency class
}

type passResult struct {
	workload          string
	e2e               map[string]stat
	layer             map[string]float64
	acct              acct
	attempted, failed int64
	notes             []string
	parts             []partResult
	spans             []span
}

// rater is implemented by an instance whose throughputs are not the
// plain rates of its operations.
type rater interface {
	rates(res *loopResult) (read, update stat)
}

// runPass sets the workload up, runs it once for tm.dur and checks it.
// eeNs prices counted read-side sections on a traced pass.
func runPass(w *workloadDef, traced bool, seed uint64, tm timing, noProbes bool, eeNs map[prcu.Flavor]float64) *passResult {
	out := &passResult{workload: w.name, e2e: map[string]stat{}, layer: map[string]float64{}}

	// Set-up, tm.setups times over; the last set of instances runs.
	var passes []*pass
	var insts []instance
	var setupS []float64
	var spent time.Duration
	for rep := 0; rep < maxSetups && (rep < tm.minSetups || spent < tm.setupFor); rep++ {
		for _, in := range insts {
			in.finish(nil)
		}
		passes, insts = passes[:0], insts[:0]
		for range w.parts {
			p := newPass(traced, seed)
			p.noProbes = noProbes
			passes = append(passes, p)
		}
		runtime.GC()
		t0 := time.Now()
		for i, pt := range w.parts {
			insts = append(insts, pt.build(passes[i]))
		}
		dt := time.Since(t0)
		spent += dt
		setupS = append(setupS, dt.Seconds())
	}
	out.e2e["setup_s"] = summarize(setupS, int64(len(setupS)))

	n := time.Duration(len(w.parts))
	perPart := make(map[string][]stat)
	for i, pt := range w.parts {
		p, in := passes[i], insts[i]
		dur := tm.dur / n
		window := time.Second
		if window > dur/10 {
			window = dur / 10
		}
		runtime.GC()
		res := p.run(in.steppers(), tm.warm/n, dur, window)

		pr := partResult{label: pt.label, e2e: map[string]stat{}, tails: map[string][2]float64{}}
		nr, nu := res.total(sideRead), res.total(sideUpdate)
		pr.e2e["ops_per_s"] = summarize(res.rates(-1), nr+nu)
		pr.e2e["read_ops_per_s"] = summarize(res.rates(sideRead), nr)
		pr.e2e["update_ops_per_s"] = summarize(res.rates(sideUpdate), nu)
		if rr, ok := in.(rater); ok {
			pr.e2e["read_ops_per_s"], pr.e2e["update_ops_per_s"] = rr.rates(res)
		}
		classes := []struct {
			name string
			bufs []*sampleBuf
			keep func(uint8) bool
		}{
			{"read", res.workerBufs(), func(k uint8) bool { return k == opRead }},
			{"update", res.workerBufs(), func(k uint8) bool { return k != opRead }},
			{"wait", []*sampleBuf{p.waits}, anyKind},
		}
		for _, c := range classes {
			l := latencies(c.bufs, res.windows(), c.keep)
			pr.e2e[c.name+"_p50_ns"] = l.p50
			pr.e2e[c.name+"_p99_ns"] = l.p99
			pr.tails[c.name] = [2]float64{l.p999, l.max}
		}
		for name, s := range pr.e2e {
			perPart[name] = append(perPart[name], s)
		}
		out.parts = append(out.parts, pr)

		for _, wk := range res.workers {
			out.attempted += wk.attempted
			out.failed += wk.failed
		}
		a, f, notes := in.finish(res)
		out.attempted += a
		out.failed += f
		out.notes = append(out.notes, notes...)

		ac := account(p, in, res, eeNs[pt.flavor])
		out.acct.add(ac)
		for k, v := range in.layers(res, ac) {
			out.layer[k] = v
		}
		if traced {
			for _, wk := range res.workers {
				out.spans = append(out.spans, wk.spans.items()...)
			}
			out.spans = append(out.spans, p.waitSpans.items()...)
		}
	}
	for name, xs := range perPart {
		if len(xs) == 1 {
			out.e2e[name] = xs[0]
		} else {
			out.e2e[name] = geomeanStats(xs)
		}
	}
	for _, name := range []string{"read_p99_ns", "update_p99_ns", "wait_p99_ns"} {
		out.layer[name] = out.e2e[name].Value
	}
	return out
}

// account scales the traced workers' sampled times up to the whole
// pass.
func account(p *pass, in instance, res *loopResult, eeNs float64) acct {
	a := acct{
		ops:        res.total(-1),
		waits:      p.waitCount.Load() * p.waitEvery,
		waitNs:     p.waitNs.Load() * p.waitEvery,
		allocBytes: res.mem1.TotalAlloc - res.mem0.TotalAlloc,
		gcPauseNs:  res.mem1.PauseTotalNs - res.mem0.PauseTotalNs,
		dropped:    p.waits.dropped.Load(),
	}
	if tr := in.tracer(); tr != nil {
		a.enters = tr.enters()
		a.eeNs = float64(a.enters) * eeNs
	}
	first, last := res.snaps[0], res.snaps[len(res.snaps)-1]
	for i, wk := range res.workers {
		a.workerWall += float64(res.wall)
		a.dropped += wk.lat.dropped.Load()
		if !p.traced {
			continue
		}
		a.dropped += wk.spans.dropped.Load()
		total := float64(last.ops[i][0] + last.ops[i][1] - first.ops[i][0] - first.ops[i][1])
		var sampled, ns int64
		for k := range wk.opNs {
			sampled += wk.opCount[k]
			ns += wk.opNs[k]
		}
		if sampled == 0 {
			continue
		}
		for k := range wk.opCount {
			a.kinds[k] += float64(wk.opCount[k]) * total / float64(sampled)
		}
		if wk.iters == 0 {
			// No pairs: the loop is taken as fully accounted. The timed
			// calls carry the decorator's clock reads too, so their
			// scaled-up sum can pass the wall time; it is capped there.
			a.opNs += min((float64(ns)/float64(sampled)-clockNs)*total, float64(res.wall))
			a.iterNs += float64(res.wall)
			continue
		}
		// The sampled iterations run slower than the rest: the clock
		// reads disturb caches beyond their own cost. Their split into
		// call and harness is applied to the worker's wall time, and
		// the excess is reported as trace.accounted_pct.
		op := float64(ns)/float64(sampled) - clockNs
		iter := float64(wk.iterNs)/float64(wk.iters) - 2*clockNs
		a.opNs += op / iter * float64(res.wall)
		a.iterNs += iter * total
	}
	return a
}

// opP50 is the median latency of the sampled operations of one kind.
func opP50(res *loopResult, kind uint8) float64 {
	return latencies(res.workerBufs(), res.windows(), func(k uint8) bool { return k == kind }).p50.Value
}

// fromUntraced names the per-layer metrics that are end-to-end figures.
// They are read from the traced run's untraced reference pass, like
// every end-to-end number.
var fromUntraced = []string{"read_p99_ns", "update_p99_ns", "wait_p99_ns", "expand_ns_per_node", "retire_free_p50_us", "retire_free_p99_us"}

// tracedRun produces a workload's per-layer metrics from the isolated
// probes' results, an untraced reference pass of a quarter of dur and a
// traced pass of two fifths; with the probes' 35 % a traced run lasts
// about dur.
func tracedRun(w *workloadDef, seed uint64, dur time.Duration, noProbes bool, probes map[string]float64) (*passResult, *passResult) {
	ee := map[prcu.Flavor]float64{}
	for _, f := range prcu.Flavors() {
		ee[f] = probes["core."+string(f)+".enter_exit_ns"]
	}
	calibrateClock()
	refTm, trTm := passTiming(dur*25/100), passTiming(dur*40/100)
	refTm.minSetups, refTm.setupFor = 1, 0
	trTm.minSetups, trTm.setupFor = 1, 0
	ref := runPass(w, false, seed, refTm, noProbes, nil)
	tr := runPass(w, true, seed, trTm, noProbes, ee)

	m := tr.layer
	for k, v := range probes {
		m[k] = v
	}
	for _, k := range fromUntraced {
		if v, ok := ref.layer[k]; ok {
			m[k] = v
		}
	}
	a := tr.acct
	if a.ops > 0 {
		m["core.waits_per_1k_ops"] = 1000 * float64(a.waits) / float64(a.ops)
		if a.waits > 0 {
			m["core.wait_mean_ns"] = float64(a.waitNs) / float64(a.waits)
		}
		m["core.enters_per_op"] = float64(a.enters) / float64(a.ops)
		m["go.alloc_bytes_per_op"] = float64(a.allocBytes) / float64(a.ops)
	}
	m["go.gc_pause_total_ms"] = float64(a.gcPauseNs) / 1e6
	if a.workerWall > 0 {
		m["core.wait_share"] = float64(a.waitNs) / a.workerWall
		m["core.enter_exit_share"] = a.eeNs / a.workerWall
		m["harness.share"] = 1 - a.opNs/a.workerWall
		m["trace.accounted_pct"] = 100 * a.iterNs / a.workerWall
	}
	m["trace.dropped"] = float64(a.dropped)
	if base := ref.e2e["ops_per_s"].Value; base > 0 {
		m["trace.overhead_pct"] = 100 * (1 - tr.e2e["ops_per_s"].Value/base)
	}
	tr.failed += ref.failed
	tr.attempted += ref.attempted
	tr.notes = append(tr.notes, ref.notes...)
	return ref, tr
}

// sortedKeys returns m's keys in order, for stable console output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
