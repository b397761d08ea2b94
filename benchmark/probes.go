package main

import (
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"time"

	"prcu"
	"prcu/internal/core"
	"prcu/internal/spin"
	"prcu/internal/stats"
	"prcu/internal/tsc"
)

// sink keeps the probes' results alive past the compiler.
var sink atomic.Uint64

// measure times body(n) in batches for about budget, at least 30 of
// them, and returns the median and 99th-percentile nanoseconds per
// operation over the batches. between, when set, runs untimed after
// each batch.
func measure(budget time.Duration, n int, body func(n int), between func()) (p50, p99 float64) {
	body(n) // warm
	var per []float64
	for start := time.Now(); len(per) < 30 || time.Since(start) < budget; {
		t0 := now()
		body(n)
		per = append(per, float64(now()-t0)/float64(n))
		if between != nil {
			between()
		}
	}
	sort.Float64s(per)
	return quantileF(per, 0.5), quantileF(per, 0.99)
}

func median(budget time.Duration, n int, body func(n int)) float64 {
	p50, _ := measure(budget, n, body, nil)
	return p50
}

// pairs is the read-side probe body: empty sections on v = i&1023.
func pairs(rd prcu.Reader) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			v := prcu.Value(i & 1023)
			rd.Enter(v)
			rd.Exit(v)
		}
	}
}

func waits(r prcu.RCU) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			r.WaitForReaders(prcu.All())
		}
	}
}

// runProbes measures every layer in isolation within about budget and
// returns the per-layer metrics that do not depend on a workload.
func runProbes(budget time.Duration) map[string]float64 {
	m := map[string]float64{}
	sweep, misc := budget*70/100, budget*30/100

	// core, per flavor: engine_sweep's phases, one engine at a time.
	flavors := prcu.Flavors()
	var ee []float64
	for _, f := range flavors {
		slice := sweep / time.Duration(len(flavors))
		r := prcu.MustNew(f, prcu.Options{})
		rd := mustRegister(r)
		key := "core." + string(f)
		m[key+".enter_exit_ns"] = median(slice*12/100, 1000, pairs(rd))
		m[key+".wait_idle_ns"] = median(slice*12/100, 100, waits(r))
		rd.Unregister()
		ee = append(ee, m[key+".enter_exit_ns"])

		busy := probeBusy(r, false, slice*55/100)
		m[key+".wait_busy_p50_ns"] = busy.p50.Value
		m[key+".wait_busy_p99_ns"] = busy.p99.Value
		if f == prcu.FlavorEER || f == prcu.FlavorD || f == prcu.FlavorDEER {
			m[key+".wait_selective_p50_ns"] = probeBusy(r, true, slice*21/100).p50.Value
		}
	}
	m["read_section_ns"] = stats.GeoMean(ee)

	each := misc / 19

	// tsc
	mono, logical := tsc.NewMonotonic(), tsc.NewLogical()
	m["tsc.monotonic_now_ns"] = median(each, 1000, func(n int) {
		var x int64
		for i := 0; i < n; i++ {
			x += mono.Now()
		}
		sink.Add(uint64(x))
	})
	m["tsc.logical_now_ns"] = median(each, 1000, func(n int) {
		var x int64
		for i := 0; i < n; i++ {
			x += logical.Now()
		}
		sink.Add(uint64(x))
	})

	// spin: one spin-phase step, and a flag's trip between goroutines.
	m["spin.step_ns"] = median(each, 1024, func(n int) {
		var w spin.Waiter
		for i := 0; i < n; i++ {
			if i%spin.DefaultSpinBudget == 0 {
				w.Reset()
			}
			w.Wait()
		}
	})
	m["spin.handoff_ns"] = probeHandoff(each)

	// core: predicate evaluation and registration.
	preds := []struct {
		name string
		p    core.Predicate
	}{
		{"core.pred_singleton_holds_ns", core.Singleton(513)},
		{"core.pred_interval_holds_ns", core.Interval(256, 768)},
		{"core.pred_func_holds_ns", core.Func(func(v core.Value) bool { return v > 256 && v <= 768 })},
	}
	for _, pr := range preds {
		p := pr.p
		m[pr.name] = median(each, 1000, func(n int) {
			var hits uint64
			for i := 0; i < n; i++ {
				if p.Holds(core.Value(i & 1023)) {
					hits++
				}
			}
			sink.Add(hits)
		})
	}
	packed := prcu.MustNew(prcu.FlavorPacked, prcu.Options{})
	m["core.register_ns"] = median(each, 100, func(n int) {
		for i := 0; i < n; i++ {
			mustRegister(packed).Unregister()
		}
	})

	// pool
	pool := prcu.NewReaderPool(packed)
	m["pool.get_put_ns"] = median(each, 1000, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	})
	nop := func() {}
	m["pool.critical_ns"] = median(each, 1000, func(n int) {
		for i := 0; i < n; i++ {
			pool.Critical(prcu.Value(i&1023), nop)
		}
	})
	pool.Close()

	// guard
	rd := mustRegister(packed)
	g := prcu.WrapReader(rd)
	m["guard.enter_exit_ns"] = median(each, 1000, func(n int) {
		for i := 0; i < n; i++ {
			s := g.Enter(prcu.Value(i & 1023))
			g.Exit(s)
		}
	})
	rec := prcu.NewReclaimer(packed, prcu.ReclaimConfig{})
	ret := prcu.NewRetirer[litmusObj](rec, 0, nil)
	objs := make([]litmusObj, 256)
	m["guard.retire_ns"], _ = measure(each, len(objs), func(n int) {
		for i := 0; i < n; i++ {
			o := &objs[i]
			o.poisoned.Store(true)
			ret.Retire(prcu.All(), o)
		}
	}, rec.Barrier)
	rec.Close()
	rd.Unregister()

	// obs: the observability tax on packed, each hook armed minus unarmed.
	type armed struct{ pair, wait float64 }
	arm := func(opt prcu.Options) (armed, prcu.RCU) {
		r := prcu.MustNew(prcu.FlavorPacked, opt)
		rd := mustRegister(r)
		defer rd.Unregister()
		return armed{median(each/2, 1000, pairs(rd)), median(each/2, 100, waits(r))}, r
	}
	off, _ := arm(prcu.Options{})
	metrics, mr := arm(prcu.Options{Metrics: prcu.NewMetrics()})
	attrib, _ := arm(prcu.Options{Metrics: prcu.NewMetrics(), RuntimeAttribution: true})
	flight, _ := arm(prcu.Options{Metrics: prcu.NewMetrics(), FlightRecorder: true})
	m["obs.enter_exit_tax_metrics_ns"] = metrics.pair - off.pair
	m["obs.enter_exit_tax_flight_ns"] = flight.pair - off.pair
	m["obs.wait_tax_metrics_ns"] = metrics.wait - off.wait
	m["obs.wait_tax_attrib_ns"] = attrib.wait - off.wait
	m["obs.wait_tax_flight_ns"] = flight.wait - off.wait
	m["obs.snapshot_us"] = median(each, 4, func(n int) {
		for i := 0; i < n; i++ {
			sink.Add(mr.Stats().Waits)
		}
	}) / 1e3

	// obshttp: one /metrics scrape of everything registered so far.
	h := prcu.ObsHandler()
	m["obshttp.metrics_scrape_us"] = median(each, 4, func(n int) {
		for i := 0; i < n; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
			sink.Add(uint64(w.Body.Len()))
		}
	}) / 1e3
	return m
}

func mustRegister(r prcu.RCU) prcu.Reader {
	rd, err := r.Register()
	if err != nil {
		panic(err) // every engine here is built uncapped
	}
	return rd
}

// probeBusy runs the sweep's busy phase on r for dur and returns the
// wait latencies.
func probeBusy(r prcu.RCU, selective bool, dur time.Duration) latency {
	p := newPass(false, 1)
	in := buildSweep(p, r, selective)
	res := p.run(in.steppers(), dur/5, dur, dur/5)
	in.finish(res)
	return latencies([]*sampleBuf{p.waits}, res.windows(), anyKind)
}

// probeHandoff times a flag's trip from the goroutine that sets it to
// the return of spin.Until on the goroutine that watches it: half of a
// ping-pong round trip.
func probeHandoff(budget time.Duration) float64 {
	var ping, pong, stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			spin.Until(func() bool { return ping.Load() || stop.Load() })
			if stop.Load() {
				return
			}
			ping.Store(false)
			pong.Store(true)
		}
	}()
	rtt := median(budget, 1000, func(n int) {
		for i := 0; i < n; i++ {
			ping.Store(true)
			spin.Until(pong.Load)
			pong.Store(false)
		}
	})
	stop.Store(true)
	<-done
	return rtt / 2
}
