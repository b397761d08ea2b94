package reclaim_test

import (
	"runtime"
	"testing"
	"time"

	"prcu/guard"
	"prcu/internal/core"
	"prcu/internal/reclaim"
)

type node struct{ pad [64]byte }

// TestRetireSteadyStateDoesNotAllocate holds a retirement to its cost
// model: once one batch has been through the worker, its array is the
// next queue's backing store, so a typed Retire under a value predicate
// is a slot store — no allocation on the retiring goroutine. AllocsPerRun
// rounds down, which would hide a queue regrown from nothing (a dozen
// doublings in a thousand calls), so the bytes allocated are held under
// one per call as well. The long FlushDelay keeps the worker asleep
// through the measured runs, so its batch processing does not land in
// the global counters both readings come from; its one timer does.
func TestRetireSteadyStateDoesNotAllocate(t *testing.T) {
	rec := reclaim.New(core.NewPacked(), reclaim.Config{Shards: 1, FlushDelay: time.Hour})
	defer rec.Close()
	ret := guard.NewRetirer(rec, 0, func(*node) {})
	pred := core.Singleton(1)

	const runs = 1000
	nodes := make([]*node, runs+1) // AllocsPerRun adds one warm-up call
	for i := range nodes {
		nodes[i] = &node{}
	}
	i := 0
	retireAll := func() float64 {
		i = 0
		return testing.AllocsPerRun(runs, func() {
			ret.Retire(pred, nodes[i])
			i++
		})
	}
	retireAll() // the warm-up batch: grows the array the worker hands back
	rec.Barrier()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := retireAll()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; allocs != 0 || bytes >= runs {
		t.Fatalf("steady-state Retire allocates %.2f objects per call and %d bytes over %d calls, want 0 and under one byte a call",
			allocs, bytes, runs)
	}
}

// TestRecycledBatchDropsReferences checks that the worker clears a batch
// array before handing it back: a retired object must become collectable
// once its callback has run, not stay pinned by a recycled slot until the
// next queue happens to overwrite it.
func TestRecycledBatchDropsReferences(t *testing.T) {
	rec := reclaim.New(core.NewPacked(), reclaim.Config{Shards: 1, FlushDelay: -1})
	defer rec.Close()
	collected := make(chan struct{})
	func() {
		n := &node{}
		runtime.SetFinalizer(n, func(*node) { close(collected) })
		rec.Retire(n, core.Singleton(1), 0, func(any) {})
	}()
	rec.Barrier()
	for deadline := time.After(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a retired object is still reachable after its callback ran: the recycled batch array was not cleared")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// BenchmarkRetire is the reclaimer layer's retire throughput: one
// goroutine retiring against a live flush worker under the kv_churn
// benchmark's settings, back-pressure included.
func BenchmarkRetire(b *testing.B) {
	rec := reclaim.New(core.NewPacked(), reclaim.Config{
		Shards: 1, MaxPending: 4096, Policy: reclaim.PolicyBlock,
	})
	defer rec.Close()
	ret := guard.NewRetirer(rec, 0, func(*node) {})
	pred := core.Singleton(1)
	nodes := make([]*node, 1024)
	for i := range nodes {
		nodes[i] = &node{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ret.Retire(pred, nodes[i%len(nodes)])
	}
	b.StopTimer()
	rec.Barrier()
}
