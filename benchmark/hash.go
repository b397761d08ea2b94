package main

import (
	"sync/atomic"

	"prcu"
	"prcu/hashtable"
	"prcu/internal/pad"
	"prcu/internal/stats"
	"prcu/internal/workload"
)

// hash_resize geometry: Figure 9's experiment, repeated. 2^16 elements
// go into 2^12 buckets (load factor 16) and three expansions bring the
// load factor to 2, unzipping all 65 536 nodes each time.
const (
	resizeElements = 1 << 16
	resizeBuckets  = 1 << 12
	resizeKeyRange = 1 << 17
	resizeExpands  = 3
	valueMask      = 0xabcdef
)

type resizeInstance struct {
	r      prcu.RCU
	traced *tracedRCU
	keys   []uint64 // the stored set, in insertion order
	stored []bool   // membership by key
	cur    atomic.Pointer[hashtable.Map[uint64, uint64]]

	reader   *resizeReader
	expander *resizeExpander
}

func buildResize(p *pass) instance {
	r, tr := decorate(prcu.MustNew(prcu.FlavorDEER, prcu.Options{}), p)
	in := &resizeInstance{r: r, traced: tr, stored: make([]bool, resizeKeyRange)}
	rng := workload.NewRNG(p.seed)
	for len(in.keys) < resizeElements {
		if k := rng.Intn(resizeKeyRange); !in.stored[k] {
			in.stored[k] = true
			in.keys = append(in.keys, k)
		}
	}
	in.cur.Store(in.fill())
	in.reader = &resizeReader{in: in, rng: newRNG(p.seed, 1), readOps: p.gauge()}
	in.expander = &resizeExpander{
		in:        in,
		m:         in.cur.Load(),
		lookups:   in.reader.readOps,
		during:    p.gauge(),
		calls:     p.gauge(),
		expandNs:  p.gauge(),
		perNodeNs: make([]float64, 0, 1<<16),
	}
	return in
}

// fill builds a fresh table at load factor 16 holding the stored set.
func (in *resizeInstance) fill() *hashtable.Map[uint64, uint64] {
	m := hashtable.NewModulo(in.r, resizeBuckets)
	for _, k := range in.keys {
		m.Insert(k, k^valueMask)
	}
	return m
}

func (in *resizeInstance) steppers() []stepper { return []stepper{in.reader, in.expander} }
func (in *resizeInstance) tracer() *tracedRCU  { return in.traced }

func (in *resizeInstance) finish(res *loopResult) (attempted, failed int64, notes []string) {
	if in.reader.h != nil {
		in.reader.h.Close()
	}
	attempted = 1
	if err := in.cur.Load().Validate(); err != nil {
		failed++
		notes = append(notes, "Validate: "+err.Error())
	}
	return attempted, failed, notes
}

// rates gives hash_resize's two throughputs per second of expansion,
// not of wall time: lookups completed while an Expand was in flight
// (Figure 9a) and Expand calls completed, each over the time those
// expansions took. Building the next table is the harness's work and
// stays out of both.
func (in *resizeInstance) rates(res *loopResult) (read, update stat) {
	e := in.expander
	during, calls, ns := res.gaugeDeltas(e.during), res.gaugeDeltas(e.calls), res.gaugeDeltas(e.expandNs)
	var rs, us []float64
	var nr, nu int64
	for i := range ns {
		if ns[i] > 0 {
			rs = append(rs, during[i]/(ns[i]/1e9))
			us = append(us, calls[i]/(ns[i]/1e9))
			nr += int64(during[i])
			nu += int64(calls[i])
		}
	}
	return summarize(rs, nr), summarize(us, nu)
}

func (in *resizeInstance) layers(res *loopResult, a acct) map[string]float64 {
	e := in.expander
	m := map[string]float64{"hashtable.get_ns": opP50(res, opRead)}
	if len(e.perNodeNs) > 0 {
		m["expand_ns_per_node"] = stats.Median(e.perNodeNs)
	}
	if e.nodes > 0 {
		m["hashtable.expand_self_ns_per_node"] = float64(e.expandTotalNs-e.expandWaitNs) / float64(e.nodes)
		m["hashtable.expand_waits_per_node"] = float64(e.expandWaits) / float64(e.nodes)
	}
	return m
}

// resizeReader is worker A: uniform lookups over the key range on
// whichever table is current, each checked against the stored set.
type resizeReader struct {
	_       linePad
	in      *resizeInstance
	rng     workload.RNG
	m       *hashtable.Map[uint64, uint64]
	h       *hashtable.Handle[uint64, uint64]
	n       uint64
	readOps *pad.Uint64 // lookups completed, published every 16
	_       linePad
}

func (c *resizeReader) step(w *worker) {
	if m := c.in.cur.Load(); m != c.m {
		if c.h != nil {
			c.h.Close()
		}
		// A pinned handle, unregistered on Close. Every table has a
		// reader pool of its own, and a pooled handle per table would
		// leave one parked reader registered on the engine per cycle for
		// every later wait to scan.
		h, err := m.NewHandle()
		if err != nil {
			panic(err) // the engine is built uncapped
		}
		c.m, c.h = m, h
	}
	k := c.rng.Intn(resizeKeyRange)
	t0 := w.begin()
	v, ok := c.h.Get(k)
	w.end(opRead, t0)
	w.check(ok == c.in.stored[k] && (!ok || v == k^valueMask))
	if c.n++; c.n&15 == 0 {
		c.readOps.Store(c.n)
	}
}

// resizeExpander is worker B. Its operation is Expand; building the
// next table and validating the last are preparation between updates,
// done in slices so the loop notices the stop flag.
type resizeExpander struct {
	_       linePad
	in      *resizeInstance
	m       *hashtable.Map[uint64, uint64]
	next    *hashtable.Map[uint64, uint64]
	filled  int
	expands int

	lookups, during, calls, expandNs *pad.Uint64

	// Accumulated over the timed windows only.
	perNodeNs     []float64
	nodes         int64
	expandTotalNs int64
	expandWaitNs  int64
	expandWaits   int64
	_             linePad
}

func (c *resizeExpander) step(w *worker) {
	switch {
	case c.expands < resizeExpands:
		l0, waits0, waitNs0 := c.lookups.Load(), c.m.ExpansionWaits(), w.p.waitNs.Load()
		t0 := w.beginEvery(0)
		c.m.Expand()
		dt := now() - t0
		w.end(opUpdate, t0)
		c.expands++
		c.during.Add(c.lookups.Load() - l0)
		c.calls.Add(1)
		c.expandNs.Add(uint64(dt))
		if w.p.win.Load() != winWarm {
			c.perNodeNs = append(c.perNodeNs, float64(dt)/resizeElements)
			c.nodes += resizeElements
			c.expandTotalNs += dt
			c.expandWaitNs += w.p.waitNs.Load() - waitNs0
			c.expandWaits += c.m.ExpansionWaits() - waits0
		}
	case c.next == nil:
		w.check(c.m.Validate() == nil)
		c.next = hashtable.NewModulo(c.in.r, resizeBuckets)
		c.filled = 0
	case c.filled < len(c.in.keys):
		end := c.filled + 1024
		for _, k := range c.in.keys[c.filled:end] {
			c.next.Insert(k, k^valueMask)
		}
		c.filled = end
	default:
		c.in.cur.Store(c.next)
		c.m, c.next, c.expands = c.next, nil, 0
	}
}
