package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prcu/internal/pad"
	"prcu/internal/stats"
	"prcu/internal/workload"
)

// Operation kinds a worker reports. opRead is the read side of a
// workload; every other kind is its update side. opWait tags
// WaitForReaders latencies, which the engine decorator records on
// whichever goroutine issued the wait.
const (
	opRead uint8 = iota
	opInsert
	opDelete
	opUpdate // a workload's whole-update call: Expand, a litmus cycle
	opWait
	nOps
)

var opNames = [nOps]string{"read", "insert", "delete", "update", "wait"}

// Sides of a workload, the index into a worker's published counters.
const (
	sideRead = iota
	sideUpdate
)

func sideOf(kind uint8) int {
	if kind == opRead {
		return sideRead
	}
	return sideUpdate
}

// epoch anchors the benchmark's own clock; now() is one monotonic read
// (~30 ns on the recorded host, half of time.Now).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// clockNs is the cost of one now(), measured before a traced pass. A
// timed operation's reading is one clock read too long and a sampled
// pair's start-to-start time two; the traced accounting takes them off.
var clockNs float64

func calibrateClock() {
	clockNs = median(5*time.Millisecond, 1000, func(n int) {
		var x int64
		for i := 0; i < n; i++ {
			x += now()
		}
		sink.Add(uint64(x))
	})
}

// winWarm is the window index while a pass warms up; samples taken then
// are dropped.
const winWarm = -1

// sample is one timed operation: its duration, the 1-s window it ended
// in, and its kind.
type sample struct {
	ns   uint32
	win  int16
	kind uint8
}

// boundedLog is a preallocated, append-only log that several goroutines
// may add to. A full log drops and counts.
type boundedLog[T any] struct {
	_       linePad
	n       atomic.Int64
	buf     []T
	dropped atomic.Int64
	_       linePad
}

func (l *boundedLog[T]) add(v T) {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = v
}

func (l *boundedLog[T]) items() []T {
	return l.buf[:min(l.n.Load(), int64(len(l.buf)))]
}

// sampleBuf logs timed operations of the timed windows.
type sampleBuf struct{ boundedLog[sample] }

func newSampleBuf(capacity int) *sampleBuf {
	b := &sampleBuf{}
	b.buf = make([]sample, capacity)
	// Touch every page now so first-use faults do not land in the run.
	for i := range b.buf {
		b.buf[i].win = winWarm
	}
	return b
}

func (b *sampleBuf) add(win int64, kind uint8, ns int64) {
	if win != winWarm {
		b.boundedLog.add(sample{ns: uint32(min(ns, math.MaxUint32)), win: int16(win), kind: kind})
	}
}

// span is one traced call into a layer, for the Chrome trace file.
type span struct {
	start, end int64
	op         uint64 // the worker's operation number; 0 for waits
	worker     int16
	kind       uint8
}

// pass is one measured pass over one workload instance: the stop flag
// and window clock its workers and decorators share, and the logs they
// write to. A traced pass samples 1 op in 16 (in adjacent pairs, so the
// gap between the two is one iteration's harness time) and keeps spans;
// an untraced pass samples 1 op in 64 for latency only.
type pass struct {
	traced   bool
	noProbes bool
	seed     uint64
	samples  int // capacity of each sample log
	spanCap  int // and of each span log

	// stop and win are read by every worker on every operation; each
	// sits on a cache line nothing in the pass writes while it runs.
	stop pad.Bool
	win  pad.Int64

	// waits logs every WaitForReaders call made through the pass's
	// engine decorator; waitNs/waitCount are their running totals and,
	// in a traced pass, waitSpans keeps their intervals.
	waits     *sampleBuf
	waitNs    pad.Int64
	waitCount pad.Int64
	waitSpans *spanLog
	// Every wait is timed and counted, but each window logs only its
	// first waitQuota of them, so that a workload issuing a million
	// waits a second still has samples from its last window.
	waitQuota int64
	waitsIn   []pad.Int64 // waits seen, per window
	// waitEvery is how many waits stand behind each one logged: 1 unless
	// the instance sends only some of its waits through the decorator.
	waitEvery int64

	// gauges are cumulative counters an instance wants read at every
	// window boundary, beside the workers' own operation counts.
	gauges []*gauge

	// background goroutines an instance runs for the length of the pass.
	background []func(p *pass)
}

type gauge struct {
	_ linePad
	v pad.Uint64
}

// Sample logs are sized for the fastest producers seen (1.2 M timed
// waits a second on the sweep) and capped where a 15-s run of the
// fastest workload, kv_churn's lookups at 1 in 64, still fits. Span logs
// keep the first 65 536 spans of each worker: a trace file anyone can
// open, where every span of a traced pass would run to gigabytes.
const (
	samplesPerSecond = 1.2e6
	sampleCapMax     = 1 << 22
	spanCapMax       = 1 << 16
)

func newPass(traced bool, seed uint64) *pass {
	p := &pass{traced: traced, seed: seed, waitEvery: 1}
	p.win.Store(winWarm)
	return p
}

// alloc sizes the pass's logs for a run of length dur cut into the
// given number of windows. It runs after set-up, so that set-up time is
// the library's alone.
func (p *pass) alloc(dur time.Duration, windows int) {
	p.samples = min(int(dur.Seconds()*samplesPerSecond)+1<<12, sampleCapMax)
	p.waits = newSampleBuf(p.samples)
	p.waitQuota = int64(p.samples / windows)
	p.waitsIn = make([]pad.Int64, windows)
	if p.traced {
		p.spanCap = min(p.samples/2, spanCapMax)
		p.waitSpans = newSpanLog(p.spanCap)
	}
}

func (p *pass) gauge() *pad.Uint64 {
	g := &gauge{}
	p.gauges = append(p.gauges, g)
	return &g.v
}

// recordWait is called by the engine decorator around every wait.
func (p *pass) recordWait(t0, t1 int64) {
	win := p.win.Load()
	if win == winWarm {
		return
	}
	p.waitNs.Add(t1 - t0)
	p.waitCount.Add(1)
	if p.waitsIn[win].Add(1) > p.waitQuota {
		return
	}
	p.waits.add(win, opWait, t1-t0)
	if p.waitSpans != nil {
		p.waitSpans.add(span{start: t0, end: t1, worker: -1, kind: opWait})
	}
}

// spanLog keeps traced spans for the Chrome trace file.
type spanLog = boundedLog[span]

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

// pending is a timed operation not yet logged.
type pending struct {
	kind   uint8
	t0, t1 int64
	op     uint64
}

// linePad keeps a goroutine's hot state off its neighbours' cache
// lines. Clients and workers are allocated back to back, and two
// workers' generators or counters on one line would make false sharing,
// not the library, set the result — differently in every process.
type linePad [pad.CacheLineSize]byte

// newRNG returns worker w's generator for the run's seed, by value so
// that it lives inside its padded client.
func newRNG(seed uint64, w int) workload.RNG {
	return *workload.NewRNG(seed*1000003 + uint64(w))
}

// worker is one closed-loop client: it issues its next operation only
// after the previous one returned. Its counters are padded and published
// every 16 operations; the main goroutine reads them at window
// boundaries.
type worker struct {
	_   linePad
	id  int
	p   *pass
	ops [2]pad.Uint64

	local [2]uint64
	n     uint64 // operations begun, drives sampling
	mask  uint64 // sample when n&mask == 0 (and, traced, == 1)
	lat   *sampleBuf

	// Traced-pass aggregates over sampled operations.
	pairing bool    // the operation now open is the first of a sampled pair
	first   pending // that operation, until the second one has ended
	opNs    [nOps]int64
	opCount [nOps]int64
	iterNs  int64 // start-to-start time of the sampled pairs
	iters   int64
	spans   *spanLog

	attempted, failed int64
	_                 linePad
}

func newWorker(id int, p *pass) *worker {
	w := &worker{id: id, p: p, mask: 63, lat: newSampleBuf(p.samples)}
	if p.traced {
		w.mask = 31
		w.spans = newSpanLog(p.spanCap)
	}
	return w
}

// begin opens the next operation and returns its start time when the
// operation is sampled, 0 otherwise. A traced pass samples adjacent
// pairs and logs both operations only after the second has ended, so
// that nothing but the operations, the harness between them and the
// clock reads falls inside the pair.
func (w *worker) begin() int64 {
	w.n++
	switch w.n & w.mask {
	case 0:
		w.first.t0 = 0
		w.pairing = w.p.traced
		return now()
	case 1:
		if w.first.t0 != 0 {
			return now()
		}
	}
	return 0
}

// beginEvery opens an operation of a worker that times 1 op in mask+1
// on its own schedule: calls long enough (an Expand, a grace-period
// cycle) that two clock reads are noise beside them.
func (w *worker) beginEvery(mask uint64) int64 {
	w.n++
	if w.n&mask != 0 {
		return 0
	}
	return now()
}

// end closes the operation begin opened.
func (w *worker) end(kind uint8, t0 int64) {
	side := sideOf(kind)
	w.local[side]++
	if w.local[side]&15 == 0 || t0 != 0 {
		w.ops[side].Store(w.local[side])
	}
	if t0 != 0 {
		w.record(kind, t0)
	}
}

func (w *worker) record(kind uint8, t0 int64) {
	t1 := now()
	if w.pairing {
		w.pairing = false
		w.first = pending{kind: kind, t0: t0, t1: t1, op: w.n}
		return
	}
	if f := w.first; f.t0 != 0 {
		w.first.t0 = 0
		if w.log(f.kind, f.t0, f.t1, f.op) {
			w.iterNs += t0 - f.t0
			w.iters++
		}
	}
	w.log(kind, t0, t1, w.n)
}

// log files one timed operation and reports whether it fell in a timed
// window.
func (w *worker) log(kind uint8, t0, t1 int64, op uint64) bool {
	win := w.p.win.Load()
	w.lat.add(win, kind, t1-t0)
	if win == winWarm {
		return false
	}
	if w.p.traced {
		w.opNs[kind] += t1 - t0
		w.opCount[kind]++
		w.spans.add(span{start: t0, end: t1, op: op, worker: int16(w.id), kind: kind})
	}
	return true
}

// check counts one verified outcome.
func (w *worker) check(ok bool) {
	w.attempted++
	if !ok {
		w.failed++
	}
}

// stepper is one worker's loop body: draw the next input, call begin,
// call the library, call end, verify the result.
type stepper interface {
	step(w *worker)
}

// snapshot is the counters at one window boundary.
type snapshot struct {
	t      int64
	ops    [][2]uint64 // per worker, per side
	gauges []uint64
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	workers []*worker
	gauges  []*gauge
	snaps   []snapshot // len = windows+1
	wall    int64      // timed span, ns
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

func (p *pass) snapshot(ws []*worker) snapshot {
	s := snapshot{ops: make([][2]uint64, len(ws)), gauges: make([]uint64, len(p.gauges))}
	s.t = now()
	for i, w := range ws {
		s.ops[i] = [2]uint64{w.ops[sideRead].Load(), w.ops[sideUpdate].Load()}
	}
	for i, g := range p.gauges {
		s.gauges[i] = g.v.Load()
	}
	return s
}

// run drives steps[i] on its own goroutine for warm+dur, cutting the
// timed part into windows. It returns after every goroutine has ended.
func (p *pass) run(steps []stepper, warm, dur, window time.Duration) *loopResult {
	res := &loopResult{gauges: p.gauges}
	windows := max(int(dur/window), 1)
	p.alloc(warm+dur, windows)
	var wg sync.WaitGroup
	for i, st := range steps {
		w := newWorker(i, p)
		res.workers = append(res.workers, w)
		wg.Add(1)
		go func(st stepper, w *worker) {
			defer wg.Done()
			for !p.stop.Load() {
				st.step(w)
			}
		}(st, w)
	}
	for _, bg := range p.background {
		wg.Add(1)
		go func(bg func(*pass)) {
			defer wg.Done()
			bg(p)
		}(bg)
	}

	time.Sleep(warm)
	runtime.ReadMemStats(&res.mem0)
	res.snaps = append(res.snaps, p.snapshot(res.workers))
	p.win.Store(0)
	for i := 1; i <= windows; i++ {
		// Each window is a full sleep from the last boundary: a late
		// wake-up lengthens its own window, it does not squeeze the next.
		time.Sleep(window)
		// Advance the window clock before reading the counters, so a
		// sample is never stamped with a window whose counters are
		// already closed.
		if i < windows {
			p.win.Store(int64(i))
		} else {
			p.win.Store(winWarm)
		}
		res.snaps = append(res.snaps, p.snapshot(res.workers))
	}
	runtime.ReadMemStats(&res.mem1)
	p.stop.Store(true)
	wg.Wait()
	res.wall = res.snaps[len(res.snaps)-1].t - res.snaps[0].t
	return res
}

// stat is a reported value: the median of its per-window values with
// their quartiles, and how many samples stand behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int64   `json:"n,omitempty"`
}

// summarize reduces per-window values to their median and quartiles.
func summarize(xs []float64, n int64) stat {
	if len(xs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: quantileF(s, 0.5), Q1: quantileF(s, 0.25), Q3: quantileF(s, 0.75), N: n}
}

// quantileF is the linearly interpolated q-quantile of sorted xs.
func quantileF(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// quantileNs is the q-quantile of sorted integer nanosecond samples. A
// run of equal values v is read as spread evenly over [v, v+1), the
// interval the clock's rounding folds into v, so the result moves
// continuously with the data, not in whole nanoseconds.
func quantileNs(sorted []uint32, q float64) float64 {
	n := len(sorted)
	rank := q * float64(n)
	i := int(rank)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	lo := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	hi := sort.Search(n, func(j int) bool { return sorted[j] > v })
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

// delta is the operations of one side (or both, side < 0) that all
// workers completed between two snapshots.
func delta(a, b snapshot, side int) float64 {
	var d uint64
	for w := range b.ops {
		for s := range b.ops[w] {
			if side < 0 || side == s {
				d += b.ops[w][s] - a.ops[w][s]
			}
		}
	}
	return float64(d)
}

// rates returns each window's rate per second of the given side.
func (r *loopResult) rates(side int) []float64 {
	out := make([]float64, 0, len(r.snaps)-1)
	for i := 1; i < len(r.snaps); i++ {
		a, b := r.snaps[i-1], r.snaps[i]
		out = append(out, delta(a, b, side)/(float64(b.t-a.t)/1e9))
	}
	return out
}

// total returns the operations of the given side counted over the timed
// windows.
func (r *loopResult) total(side int) int64 {
	return int64(delta(r.snaps[0], r.snaps[len(r.snaps)-1], side))
}

// gaugeDeltas returns a gauge's increase in each window.
func (r *loopResult) gaugeDeltas(v *pad.Uint64) []float64 {
	g := 0
	for &r.gauges[g].v != v {
		g++
	}
	out := make([]float64, 0, len(r.snaps)-1)
	for i := 1; i < len(r.snaps); i++ {
		out = append(out, float64(r.snaps[i].gauges[g]-r.snaps[i-1].gauges[g]))
	}
	return out
}

// latency holds one percentile pair of a sample class: each the median
// over windows of that window's percentile, plus pooled tail figures
// for the console.
type latency struct {
	p50, p99  stat
	p999, max float64
}

// anyKind keeps every sample of a log that holds one kind only.
func anyKind(uint8) bool { return true }

// latencies reduces the samples matching keep to per-window p50/p99.
func latencies(bufs []*sampleBuf, windows int, keep func(kind uint8) bool) latency {
	byWin := make([][]uint32, windows)
	var all []uint32
	for _, b := range bufs {
		for _, s := range b.items() {
			if s.win < 0 || int(s.win) >= windows || !keep(s.kind) {
				continue
			}
			byWin[s.win] = append(byWin[s.win], s.ns)
			all = append(all, s.ns)
		}
	}
	if len(all) == 0 {
		return latency{}
	}
	var p50s, p99s []float64
	for _, xs := range byWin {
		if len(xs) == 0 {
			continue
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		p50s = append(p50s, quantileNs(xs, 0.50))
		p99s = append(p99s, quantileNs(xs, 0.99))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	n := int64(len(all))
	return latency{
		p50:  summarize(p50s, n),
		p99:  summarize(p99s, n),
		p999: quantileNs(all, 0.999),
		max:  float64(all[len(all)-1]),
	}
}

func (r *loopResult) workerBufs() []*sampleBuf {
	bufs := make([]*sampleBuf, len(r.workers))
	for i, w := range r.workers {
		bufs[i] = w.lat
	}
	return bufs
}

func (r *loopResult) windows() int { return len(r.snaps) - 1 }

// geomeanStats combines one stat per engine flavor into their geometric
// mean. A flavor without a value leaves the result empty; one without
// quartiles (a run too short to fill its windows) leaves only those out.
func geomeanStats(xs []stat) stat {
	col := func(get func(stat) float64) float64 {
		vals := make([]float64, len(xs))
		for i, x := range xs {
			if vals[i] = get(x); vals[i] <= 0 {
				return 0
			}
		}
		return stats.GeoMean(vals)
	}
	out := stat{
		Value: col(func(s stat) float64 { return s.Value }),
		Q1:    col(func(s stat) float64 { return s.Q1 }),
		Q3:    col(func(s stat) float64 { return s.Q3 }),
	}
	for _, x := range xs {
		out.N += x.N
	}
	return out
}
