package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"prcu"
	"prcu/hashtable"
	"prcu/internal/workload"
)

// kv_churn geometry: examples/kvstore's store with every optional layer
// switched on.
const (
	kvKeys       = 1 << 16
	kvBuckets    = 1 << 14
	kvMaxPending = 4096
	kvProbeEvery = 64
	kvProbeCap   = 1 << 20
)

// probe is a dummy retirement sent through the store's own reclaimer to
// time retire→free. freed counts the callback's runs; it must end at 1.
type probe struct {
	t0    int64
	freed atomic.Int32
}

type kvInstance struct {
	m      *hashtable.Map[uint64, uint64]
	rec    *prcu.Reclaimer
	traced *tracedRCU

	reader  *kvReader
	updater *kvUpdater

	noProbes bool
	probes   []probe
	ages     *sampleBuf // retire→free ages
	retireNs *sampleBuf // caller-side cost of the probe's Retire

	// Sampled from the background goroutine at about 1 kHz.
	peakPending int
	oldestAges  []float64
	ran         time.Duration // how long the workers ran, warm-up included
}

func buildKV(p *pass) instance {
	eng := prcu.MustNew(prcu.FlavorPacked, prcu.Options{Metrics: prcu.NewMetrics()})
	r, tr := decorate(eng, p)
	in := &kvInstance{traced: tr}
	in.m = hashtable.NewModulo(r, kvBuckets)
	in.rec = prcu.NewReclaimer(r, prcu.ReclaimConfig{MaxPending: kvMaxPending, Policy: prcu.PolicyBlock, Shards: 2})
	in.m.SetReclaimer(in.rec)
	rng := workload.NewRNG(p.seed)
	for k := uint64(0); k < kvKeys; k += 16 {
		in.m.Insert(k, k^valueMask)
	}
	for in.m.Size() < kvKeys/2 {
		if k := rng.Intn(kvKeys); !pinned(k) {
			in.m.Insert(k, k^valueMask)
		}
	}
	in.reader = &kvReader{m: in.m, h: in.m.Handle(), rng: newRNG(p.seed, 1)}
	in.updater = &kvUpdater{in: in, rng: newRNG(p.seed, 2)}
	in.noProbes = p.noProbes
	p.background = append(p.background, in.watchBacklog)
	return in
}

// watchBacklog samples the reclaimer's backlog gauges about once a
// millisecond for as long as the pass runs.
func (in *kvInstance) watchBacklog(p *pass) {
	start := time.Now()
	defer func() { in.ran = time.Since(start) }()
	for !p.stop.Load() {
		time.Sleep(time.Millisecond)
		if p.win.Load() == winWarm {
			continue
		}
		if n := in.rec.Pending(); n > in.peakPending {
			in.peakPending = n
		}
		in.oldestAges = append(in.oldestAges, float64(in.rec.OldestAge())/1e3)
	}
}

// steppers also allocates the probe logs: here, not in build, so that
// set-up time is the store's alone.
func (in *kvInstance) steppers() []stepper {
	if !in.noProbes {
		in.probes = make([]probe, kvProbeCap)
		in.ages = newSampleBuf(kvProbeCap)
		in.retireNs = newSampleBuf(kvProbeCap)
	}
	return []stepper{in.reader, in.updater}
}
func (in *kvInstance) tracer() *tracedRCU { return in.traced }

func (in *kvInstance) finish(res *loopResult) (attempted, failed int64, notes []string) {
	in.reader.h.Close()
	in.rec.Barrier()
	attempted = 1
	if err := in.m.Validate(); err != nil {
		failed++
		notes = append(notes, "Validate: "+err.Error())
	}
	var lost int64
	for i := range in.probes[:in.updater.probes] {
		attempted++
		if in.probes[i].freed.Load() != 1 {
			lost++
		}
	}
	if lost > 0 {
		failed += lost
		notes = append(notes, fmt.Sprintf("%d of %d probes were not freed exactly once", lost, in.updater.probes))
	}
	// A probe predicate that forms its own wait group multiplies grace
	// periods until the probe is the workload.
	if g, n := int64(in.rec.Graces()), in.updater.probes; n > 0 {
		attempted++
		if g >= n/2 {
			failed++
			notes = append(notes, fmt.Sprintf("%d grace periods for %d probes: probes are not folding into the table's waits", g, n))
		}
	}
	in.rec.Close()
	return attempted, failed, notes
}

func (in *kvInstance) layers(res *loopResult, a acct) map[string]float64 {
	m := map[string]float64{
		"hashtable.get_ns":    opP50(res, opRead),
		"hashtable.insert_ns": opP50(res, opInsert),
		"hashtable.delete_ns": opP50(res, opDelete),
	}
	if in.ages != nil {
		age := latencies([]*sampleBuf{in.ages}, res.windows(), anyKind)
		m["retire_free_p50_us"] = age.p50.Value / 1e3
		m["retire_free_p99_us"] = age.p99.Value / 1e3
		m["reclaim.retire_ns"] = latencies([]*sampleBuf{in.retireNs}, res.windows(), anyKind).p50.Value
	}
	s := in.rec.Stats()
	if in.ran > 0 {
		m["reclaim.retires_per_s"] = float64(s.ReclaimRetired) / in.ran.Seconds()
	}
	if s.ReclaimRetired > 0 {
		m["reclaim.graces_per_1k_retires"] = 1000 * float64(s.ReclaimGraces) / float64(s.ReclaimRetired)
		m["reclaim.backpressure_waits_per_1k"] = 1000 * float64(in.rec.BackpressureWaits()) / float64(s.ReclaimRetired)
	}
	m["reclaim.batch_p50"] = s.ReclaimBatch.P50Ns
	m["reclaim.flush_p50_us"] = s.ReclaimFlushNs.P50Ns / 1e3
	m["reclaim.inline_waits"] = float64(in.rec.InlineWaits())
	m["reclaim.peak_pending"] = float64(in.peakPending)
	if len(in.oldestAges) > 0 {
		sort.Float64s(in.oldestAges)
		m["reclaim.oldest_age_p99_us"] = quantileF(in.oldestAges, 0.99)
	}
	return m
}

// kvReader is worker A: lookups, 7 of 8 through its held Handle and 1
// of 8 through the one-shot Map.Get, which borrows a pooled reader.
type kvReader struct {
	_   linePad
	m   *hashtable.Map[uint64, uint64]
	h   *hashtable.Handle[uint64, uint64]
	rng workload.RNG
	n   uint64
	_   linePad
}

func (c *kvReader) step(w *worker) {
	k := c.rng.Intn(kvKeys)
	var v uint64
	var ok bool
	t0 := w.begin()
	if c.n++; c.n&7 == 0 {
		v, ok = c.m.Get(k)
	} else {
		v, ok = c.h.Get(k)
	}
	w.end(opRead, t0)
	if ok && v != k^valueMask {
		w.check(false)
		return
	}
	checkPinned(w, k, ok)
}

// kvUpdater is worker B: inserts and deletes in equal shares, every
// delete retiring its node through the reclaimer, and one operation in
// 64 retiring a probe beside it.
type kvUpdater struct {
	_      linePad
	in     *kvInstance
	rng    workload.RNG
	probes int64
	_      linePad
}

func (c *kvUpdater) step(w *worker) {
	k := c.rng.Intn(kvKeys)
	for pinned(k) {
		k = c.rng.Intn(kvKeys)
	}
	if c.rng.Next()&1 == 0 {
		t0 := w.begin()
		c.in.m.Insert(k, k^valueMask)
		w.end(opInsert, t0)
	} else {
		t0 := w.begin()
		c.in.m.Delete(k)
		w.end(opDelete, t0)
	}
	w.attempted++
	// Drawn, not counted off: a probe every 64th operation exactly would
	// beat against the samplers' own periods of 32 and 64.
	if c.rng.Next()%kvProbeEvery == 0 && c.probes < int64(len(c.in.probes)) {
		c.retireProbe(w.p, k&(kvBuckets-1))
	}
}

// retireProbe sends one probe through the reclaimer. Its predicate is a
// Func over the key's bucket, the same shape as the table's own
// retirements, so the coalescer folds it into their wait and does not
// give it a grace period of its own.
func (c *kvUpdater) retireProbe(p *pass, bucket uint64) {
	pr := &c.in.probes[c.probes]
	c.probes++
	in, win := c.in, &p.win
	pr.t0 = now()
	prcu.Retire(in.rec, prcu.Func(func(v prcu.Value) bool { return v == bucket }), pr, func(pr *probe) {
		pr.freed.Add(1)
		in.ages.add(win.Load(), 0, now()-pr.t0)
	})
	in.retireNs.add(win.Load(), 0, now()-pr.t0)
}
