package opttree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Contains(5) || tr.Delete(5) || tr.Size() != 0 {
		t.Fatal("empty tree misbehaves")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBasic(t *testing.T) {
	tr := New()
	if !tr.Insert(10, 100) || tr.Insert(10, 200) {
		t.Fatal("insert semantics wrong")
	}
	if v, ok := tr.Get(10); !ok || v != 100 {
		t.Fatalf("Get(10) = %d,%v", v, ok)
	}
	if !tr.Delete(10) || tr.Delete(10) || tr.Contains(10) {
		t.Fatal("delete semantics wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingNodeRevival(t *testing.T) {
	tr := New()
	// Create 20 with two children, delete it (becomes routing), re-insert.
	tr.Insert(20, 1)
	tr.Insert(10, 2)
	tr.Insert(30, 3)
	if !tr.Delete(20) {
		t.Fatal("delete 20")
	}
	if tr.Contains(20) {
		t.Fatal("routing node reported live")
	}
	if !tr.Contains(10) || !tr.Contains(30) {
		t.Fatal("children lost")
	}
	if !tr.Insert(20, 9) {
		t.Fatal("revival insert failed")
	}
	if v, ok := tr.Get(20); !ok || v != 9 {
		t.Fatalf("Get(20) = %d,%v after revival", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	tr := New()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			_, in := model[k]
			if got := tr.Insert(k, k*2); got == in {
				t.Fatalf("op %d: Insert(%d) = %v, model: %v", i, k, got, in)
			}
			if !in {
				model[k] = k * 2
			}
		case 1:
			_, in := model[k]
			if got := tr.Delete(k); got != in {
				t.Fatalf("op %d: Delete(%d) = %v, model: %v", i, k, got, in)
			}
			delete(model, k)
		default:
			v, in := model[k]
			gv, got := tr.Get(k)
			if got != in || (got && gv != v) {
				t.Fatalf("op %d: Get(%d) = %d,%v, model %d,%v", i, k, gv, got, v, in)
			}
		}
	}
	if tr.Size() != len(model) {
		t.Fatalf("Size = %d, model %d", tr.Size(), len(model))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceUnderSequentialInsert(t *testing.T) {
	tr := New()
	const n = 1 << 12
	for k := uint64(0); k < n; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// A plain BST would be 4096 deep; relaxed AVL should be within a small
	// multiple of log2(n) = 12.
	if d := tr.MaxDepth(); d > 40 {
		t.Fatalf("depth %d after sorted inserts: rebalancing ineffective", d)
	}
	for k := uint64(0); k < n; k++ {
		if !tr.Contains(k) {
			t.Fatalf("key %d lost during rebalancing", k)
		}
	}
}

func TestQuickSetSemantics(t *testing.T) {
	tr := New()
	f := func(ops []uint16) bool {
		model := map[uint64]bool{}
		for _, op := range ops {
			k := uint64(op % 89)
			if op&0x8000 != 0 {
				tr.Delete(k)
				delete(model, k)
			} else {
				tr.Insert(k, k)
				model[k] = true
			}
		}
		for k := uint64(0); k < 89; k++ {
			if tr.Contains(k) != model[k] {
				return false
			}
		}
		if tr.Validate() != nil {
			return false
		}
		for k := uint64(0); k < 89; k++ {
			tr.Delete(k)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjoint(t *testing.T) {
	tr := New()
	const gs, perG = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 100000)
			for i := uint64(0); i < perG; i++ {
				if !tr.Insert(base+i, i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			for i := uint64(0); i < perG; i++ {
				if !tr.Contains(base + i) {
					t.Errorf("key %d missing", base+i)
					return
				}
			}
			for i := uint64(0); i < perG; i += 2 {
				if !tr.Delete(base + i) {
					t.Errorf("delete %d failed", base+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if want := gs * perG / 2; tr.Size() != want {
		t.Fatalf("Size = %d, want %d", tr.Size(), want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedStress(t *testing.T) {
	tr := New()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := uint64(rng.Intn(128))
				switch rng.Intn(3) {
				case 0:
					tr.Insert(k, k)
				case 1:
					tr.Delete(k)
				default:
					if v, ok := tr.Get(k); ok && v != k {
						t.Errorf("Get(%d) returned foreign value %d", k, v)
						stop.Store(true)
						return
					}
				}
			}
		}(g)
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPermanentKeysAlwaysVisible(t *testing.T) {
	tr := New()
	permanent := []uint64{11, 23, 47, 71, 89}
	for _, k := range permanent {
		tr.Insert(k, k)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := uint64(rng.Intn(100))
				skip := false
				for _, p := range permanent {
					if k == p {
						skip = true
						break
					}
				}
				if skip {
					continue
				}
				if rng.Intn(2) == 0 {
					tr.Insert(k, k)
				} else {
					tr.Delete(k)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, p := range permanent {
					if !tr.Contains(p) {
						t.Errorf("permanent key %d invisible", p)
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRemoveNoDeadlock churns a small key range so that
// rotations keep moving the node a delete is about to splice out. A
// delete that locked that node before checking it was still its
// recorded parent's child could take a child's lock before its parent's
// while a rebalance took them in the opposite order, and both would
// hang. A progress watchdog turns such a hang into a failure rather than
// a test timeout.
func TestConcurrentRemoveNoDeadlock(t *testing.T) {
	const (
		workers = 8
		keys    = 32
		run     = 2500 * time.Millisecond
		stall   = time.Second
	)
	tr := New()
	var ops atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					tr.Insert(k, k)
				} else {
					tr.Delete(k)
				}
				ops.Add(1)
			}
		}(g)
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(run)
	last, lastMoved := ops.Load(), time.Now()
	for now := range tick.C {
		if n := ops.Load(); n != last {
			last, lastMoved = n, now
		} else if now.Sub(lastMoved) >= stall {
			stop.Store(true)
			t.Fatalf("no operation completed for %v after %d ops: deadlock", now.Sub(lastMoved), n)
		}
		if now.After(deadline) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
