// Benchmarks mirroring the paper's evaluation, one family per figure.
// These are the testing.B counterparts of cmd/prcubench, sized so that
// `go test -bench=. -benchmem` finishes quickly; the CLI harness is the
// tool for full sweeps and the normalized/percentage views.
package prcu_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"prcu"
	"prcu/citrus"
	"prcu/hashtable"
	"prcu/internal/workload"
)

const (
	benchKeySpace = 1 << 14
)

// benchEngine is one row of the benchmark lineup. The lineup is derived
// from prcu.Flavors() so every engine appears in every figure bench; a
// flavor missing from the spec table below is a hard failure, not a
// silently thinner comparison.
type benchEngine struct {
	name   string
	mk     func() prcu.RCU
	domain citrus.Domain
}

func benchEngines() []benchEngine {
	specs := map[prcu.Flavor]struct {
		name   string
		domain func() citrus.Domain
	}{
		prcu.FlavorEER:    {"EER-PRCU", citrus.FuncDomain},
		prcu.FlavorD:      {"D-PRCU", func() citrus.Domain { return citrus.CompressedDomain(1024) }},
		prcu.FlavorDEER:   {"DEER-PRCU", func() citrus.Domain { return citrus.CompressedDomain(1024) }},
		prcu.FlavorTime:   {"TimeRCU", citrus.WildcardDomain},
		prcu.FlavorTree:   {"TreeRCU", citrus.WildcardDomain},
		prcu.FlavorURCU:   {"URCU", citrus.WildcardDomain},
		prcu.FlavorDist:   {"DistRCU", citrus.WildcardDomain},
		prcu.FlavorSRCU:   {"SRCU", citrus.WildcardDomain},
		prcu.FlavorPacked: {"Packed", citrus.WildcardDomain},
	}
	flavors := prcu.Flavors()
	out := make([]benchEngine, 0, len(flavors))
	for _, f := range flavors {
		spec, ok := specs[f]
		if !ok {
			panic(fmt.Sprintf("bench_test: flavor %q has no benchmark spec; add it to benchEngines", f))
		}
		f := f
		out = append(out, benchEngine{
			name:   spec.name,
			mk:     func() prcu.RCU { return prcu.MustNew(f, prcu.Options{}) },
			domain: spec.domain(),
		})
	}
	return out
}

// BenchmarkReadSideEnterExit measures each engine's raw rcu_enter/rcu_exit
// cost — the per-read overhead Figure 7 exposes at the data structure
// level.
func BenchmarkReadSideEnterExit(b *testing.B) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			r := e.mk()
			rd, err := r.Register()
			if err != nil {
				b.Fatal(err)
			}
			defer rd.Unregister()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := prcu.Value(i & 1023)
				rd.Enter(v)
				rd.Exit(v)
			}
		})
	}
}

// BenchmarkEnterExit is the packed-vs-URCU read-side head-to-head: both
// engines do one reader-private store on Enter and one on Exit, but URCU's
// Enter also derives its word from the global phase under a seq-cst RMW
// discipline, while the packed engine is a plain load + or + store. This
// is the regression guard for the packed engine's reason to exist — its
// per-op time must stay at or below URCU's (EXPERIMENTS.md records the
// numbers). Run with -cpu 1,4 to see both the uncontended and the
// cacheline-sharing-free parallel picture.
func BenchmarkEnterExit(b *testing.B) {
	for _, f := range []prcu.Flavor{prcu.FlavorURCU, prcu.FlavorPacked} {
		b.Run(string(f), func(b *testing.B) {
			r := prcu.MustNew(f, prcu.Options{})
			b.RunParallel(func(pb *testing.PB) {
				rd, err := r.Register()
				if err != nil {
					b.Error(err)
					return
				}
				defer rd.Unregister()
				for i := 0; pb.Next(); i++ {
					v := prcu.Value(i & 1023)
					rd.Enter(v)
					rd.Exit(v)
				}
			})
		})
	}
}

// BenchmarkFig1WaitVsOp is Figure 1's comparison as two benches: the cost
// of an uncontended wait-for-readers next to a hash lookup.
func BenchmarkFig1WaitVsOp(b *testing.B) {
	b.Run("HashLookup", func(b *testing.B) {
		r := prcu.NewTimeRCU(prcu.Options{})
		m := hashtable.NewModulo(r, 1<<12)
		rng := workload.NewRNG(1)
		for n := 0; n < 2<<12; {
			if m.Insert(rng.Intn(4<<12), 0) {
				n++
			}
		}
		h, err := m.NewHandle()
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Contains(rng.Intn(4 << 12))
		}
	})
	b.Run("WaitForReaders", func(b *testing.B) {
		r := prcu.NewTimeRCU(prcu.Options{})
		rd, err := r.Register()
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Unregister()
		rd.Enter(0)
		rd.Exit(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.WaitForReaders(prcu.All())
		}
	})
}

// benchTree builds a half-full CITRUS tree.
func benchTree(b *testing.B, r prcu.RCU, d citrus.Domain) *citrus.Tree {
	b.Helper()
	t := citrus.New(r, d)
	h, err := t.NewHandle()
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rng := workload.NewRNG(0xfeedface)
	for t.Size() < benchKeySpace/2 {
		h.Insert(rng.Intn(benchKeySpace), 0)
	}
	return t
}

// benchTreeMix drives one operation mix over a fresh tree per engine,
// with RunParallel supplying the concurrency.
func benchTreeMix(b *testing.B, mix workload.Mix) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			t := benchTree(b, e.mk(), e.domain)
			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h, err := t.NewHandle()
				if err != nil {
					b.Error(err)
					return
				}
				defer h.Close()
				rng := workload.NewRNG(seed.Add(1))
				for pb.Next() {
					k := rng.Intn(benchKeySpace)
					switch mix.Pick(rng) {
					case workload.OpContains:
						h.Contains(k)
					case workload.OpInsert:
						h.Insert(k, k)
					default:
						h.Delete(k)
					}
				}
			})
		})
	}
}

// BenchmarkFig5ReadDominated..WriteDominated are Figure 5's workloads.
func BenchmarkFig5ReadDominated(b *testing.B) { benchTreeMix(b, workload.ReadDominated) }

// BenchmarkFig5Mixed is the 70/15/15 panel.
func BenchmarkFig5Mixed(b *testing.B) { benchTreeMix(b, workload.Mixed) }

// BenchmarkFig5WriteDominated is the 0/50/50 panel.
func BenchmarkFig5WriteDominated(b *testing.B) { benchTreeMix(b, workload.WriteDominated) }

// BenchmarkFig7ReadOnly is Figure 7's pure read-overhead probe.
func BenchmarkFig7ReadOnly(b *testing.B) { benchTreeMix(b, workload.ReadOnly) }

// BenchmarkFig6WaitLatency measures a single wait-for-readers issued
// against each engine while reader churn runs — Figure 6(b)/(d)'s
// per-wait latency.
func BenchmarkFig6WaitLatency(b *testing.B) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			r := e.mk()
			var stop atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				rd, err := r.Register()
				if err != nil {
					b.Error(err)
					return
				}
				defer rd.Unregister()
				for i := 0; !stop.Load(); i++ {
					v := prcu.Value(i & 63)
					rd.Enter(v)
					rd.Exit(v)
				}
			}()
			pred := prcu.Interval(10, 12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.WaitForReaders(pred)
			}
			b.StopTimer()
			stop.Store(true)
			<-done
		})
	}
}

// BenchmarkFig9Expand times a full table expansion (the unzip with its
// per-pointer-change waits) under each engine — Figure 9(b)'s latency.
func BenchmarkFig9Expand(b *testing.B) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := e.mk()
				m := hashtable.NewModulo(r, 1<<10)
				rng := workload.NewRNG(9)
				for n := 0; n < 4<<10; {
					if m.Insert(rng.Intn(8<<10), 0) {
						n++
					}
				}
				b.StartTimer()
				m.Expand()
			}
		})
	}
}

// BenchmarkPredicate measures predicate construction + evaluation, the
// only new cost PRCU puts on the wait path itself.
func BenchmarkPredicate(b *testing.B) {
	cases := []struct {
		name string
		p    prcu.Predicate
	}{
		{"All", prcu.All()},
		{"Singleton", prcu.Singleton(7)},
		{"Interval", prcu.Interval(100, 110)},
		{"Func", prcu.Func(func(v prcu.Value) bool { return v > 100 && v <= 110 })},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sink := false
			for i := 0; i < b.N; i++ {
				sink = c.p.Holds(prcu.Value(i & 255))
			}
			_ = sink
		})
	}
}

// BenchmarkWaitNoReaders measures the floor cost of wait-for-readers with
// nothing to wait for — the case PRCU optimizes toward, since most
// targeted waits find no conflicting readers.
func BenchmarkWaitNoReaders(b *testing.B) {
	for _, e := range benchEngines() {
		b.Run(e.name, func(b *testing.B) {
			r := e.mk()
			pred := prcu.Singleton(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.WaitForReaders(pred)
			}
		})
	}
}

func ExampleNew() {
	r := prcu.MustNew(prcu.FlavorD, prcu.Options{})
	rd, _ := r.Register()
	rd.Enter(42)
	// ... read the structure region identified by 42 ...
	rd.Exit(42)
	r.WaitForReaders(prcu.Singleton(42))
	rd.Unregister()
	fmt.Println(r.Name())
	// Output: D-PRCU
}
