// Cross-module integration tests: the engines, the containers and the
// async machinery working together the way a real application would use
// them.
package prcu_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu"
	"prcu/citrus"
	"prcu/hashtable"
	"prcu/internal/workload"
)

// TestSharedEngineAcrossStructures runs a CITRUS tree and a hash table on
// one engine simultaneously: reader slots, values and predicates from the
// two structures must coexist (values are opaque to PRCU, §3.1).
func TestSharedEngineAcrossStructures(t *testing.T) {
	r := prcu.NewD(prcu.Options{})
	tree := citrus.New(r, citrus.CompressedDomain(64))
	table := hashtable.NewModulo(r, 16)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th, err := tree.NewHandle()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Close()
			rng := workload.NewRNG(uint64(g) + 1)
			for !stop.Load() {
				k := rng.Intn(256)
				switch rng.Intn(3) {
				case 0:
					th.Insert(k, k)
				case 1:
					th.Delete(k)
				default:
					th.Contains(k)
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hh, err := table.NewHandle()
			if err != nil {
				t.Error(err)
				return
			}
			defer hh.Close()
			rng := workload.NewRNG(uint64(g) + 100)
			for !stop.Load() {
				k := rng.Intn(512)
				switch rng.Intn(3) {
				case 0:
					table.Insert(k, k)
				case 1:
					table.Delete(k)
				default:
					hh.Contains(k)
				}
			}
		}(g)
	}
	// Expand the table twice while the tree churns on the same engine.
	time.Sleep(50 * time.Millisecond)
	table.Expand()
	table.Expand()
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncReclamationPattern mirrors the quickstart's pooled-reclamation
// idiom through asynchronous callbacks on a single-shard Reclaimer: a
// retired object may only be recycled after a grace period covering its
// key, and no reader must ever observe a recycled object.
func TestAsyncReclamationPattern(t *testing.T) {
	r := prcu.NewEER(prcu.Options{})
	rec := prcu.NewReclaimer(r, prcu.ReclaimConfig{Shards: 1, FlushDelay: -1})
	defer rec.Close()

	type obj struct {
		key     prcu.Value
		retired atomic.Bool
	}
	var current atomic.Pointer[obj]
	current.Store(&obj{key: 1})

	var stop atomic.Bool
	var anomalies atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd, err := r.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer rd.Unregister()
			for !stop.Load() {
				o := current.Load()
				rd.Enter(o.key)
				// Re-check identity inside the critical section: if the
				// object was swapped before our Enter, reload.
				if o2 := current.Load(); o2 == o {
					if o.retired.Load() {
						anomalies.Add(1)
					}
				}
				rd.Exit(o.key)
			}
		}()
	}
	for i := prcu.Value(2); i < 300; i++ {
		old := current.Load()
		current.Store(&obj{key: i})
		rec.Defer(prcu.Singleton(old.key), 0, func(err error) {
			if err == nil {
				old.retired.Store(true)
			}
		})
	}
	rec.Barrier()
	stop.Store(true)
	wg.Wait()
	if n := anomalies.Load(); n != 0 {
		t.Fatalf("%d readers observed a retired object inside a covered critical section", n)
	}
}

// TestCitrusOverSimulatedEngineStaysStructurallySound: the Figure 8
// measurement wraps engines so waits do nothing; readers may then observe
// anomalies, but updates must still leave the tree structurally valid
// (locks and validation, not grace periods, protect the structure).
func TestCitrusOverSimulatedEngineStaysStructurallySound(t *testing.T) {
	inner := prcu.NewTimeRCU(prcu.Options{})
	r := prcu.NewSimulated(inner, 0)
	tree := citrus.New(r, citrus.WildcardDomain())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := tree.NewHandle()
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Close()
			rng := workload.NewRNG(uint64(g) + 1)
			for !stop.Load() {
				k := rng.Intn(64)
				switch rng.Intn(3) {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		}(g)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryEngineDrivesBothApplications is the top-level compatibility
// matrix: every engine must run both paper applications correctly.
func TestEveryEngineDrivesBothApplications(t *testing.T) {
	for _, f := range prcu.Flavors() {
		f := f
		t.Run(string(f), func(t *testing.T) {
			r := prcu.MustNew(f, prcu.Options{})
			tree := citrus.New(r, citrus.DefaultDomain(f))
			th, err := tree.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 200; k++ {
				th.Insert(k, k)
			}
			for k := uint64(0); k < 200; k += 3 {
				th.Delete(k)
			}
			for k := uint64(0); k < 200; k++ {
				want := k%3 != 0
				if th.Contains(k) != want {
					t.Fatalf("tree Contains(%d) = %v, want %v", k, !want, want)
				}
			}
			th.Close()
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}

			table := hashtable.NewModulo(r, 8)
			hh, err := table.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 200; k++ {
				table.Insert(k, k*2)
			}
			table.Expand()
			table.Expand()
			for k := uint64(0); k < 200; k++ {
				if v, ok := hh.Get(k); !ok || v != k*2 {
					t.Fatalf("table Get(%d) = %d,%v", k, v, ok)
				}
			}
			hh.Close()
			if err := table.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOneShotLookupsDoNotAllocate pins the cost of the structures'
// one-shot Get/Contains: the typed reader they wrap around the borrowed
// pooled reader stays on the caller's frame, so once the first borrow
// has registered the reader, a lookup allocates nothing. AllocsPerRun
// runs on one P, so every borrow finds the reader the previous one
// parked; under -race sync.Pool drops Puts at random, each costing the
// next borrow a fresh reader, so the bound holds without it only.
func TestOneShotLookupsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under -race")
	}
	table := hashtable.NewModulo(prcu.NewPacked(prcu.Options{}), 8)
	table.Insert(3, 4)
	tree := citrus.New(prcu.NewPacked(prcu.Options{}), citrus.FuncDomain())
	h := tree.Handle()
	h.Insert(3, 4)
	h.Close()
	lookups := map[string]func() (uint64, bool, bool){
		"hashtable": func() (uint64, bool, bool) { v, ok := table.Get(3); return v, ok, table.Contains(5) },
		"citrus":    func() (uint64, bool, bool) { v, ok := tree.Get(3); return v, ok, tree.Contains(5) },
	}
	for name, lookup := range lookups {
		if n := testing.AllocsPerRun(1000, func() {
			if v, ok, absent := lookup(); !ok || v != 4 || absent {
				t.Fatalf("%s: Get(3) = %d,%v, Contains(5) = %v", name, v, ok, absent)
			}
		}); n != 0 {
			t.Errorf("%s: one-shot Get+Contains allocate %.2f objects per run, want 0", name, n)
		}
	}
}
