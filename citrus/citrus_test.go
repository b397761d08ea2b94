package citrus

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"prcu"
)

// treeVariants builds a fresh tree for every engine/domain pairing the
// paper evaluates.
func treeVariants() map[string]func() *Tree {
	return map[string]func() *Tree{
		"EER":  func() *Tree { return New(prcu.NewEER(prcu.Options{}), FuncDomain()) },
		"D":    func() *Tree { return New(prcu.NewD(prcu.Options{}), CompressedDomain(64)) },
		"DEER": func() *Tree { return New(prcu.NewDEER(prcu.Options{}), CompressedDomain(64)) },
		"Time": func() *Tree { return New(prcu.NewTimeRCU(prcu.Options{}), WildcardDomain()) },
		"URCU": func() *Tree { return New(prcu.NewURCU(prcu.Options{}), WildcardDomain()) },
		"Tree": func() *Tree { return New(prcu.NewTreeRCU(prcu.Options{}), WildcardDomain()) },
		"Dist": func() *Tree { return New(prcu.NewDistRCU(prcu.Options{}), WildcardDomain()) },
	}
}

func mustHandle(t *testing.T, tr *Tree) *Handle {
	t.Helper()
	h, err := tr.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEmptyTree(t *testing.T) {
	tr := New(prcu.NewEER(prcu.Options{}), FuncDomain())
	h := mustHandle(t, tr)
	defer h.Close()
	if h.Contains(5) {
		t.Fatal("empty tree contains 5")
	}
	if h.Delete(5) {
		t.Fatal("delete from empty tree succeeded")
	}
	if tr.Size() != 0 {
		t.Fatalf("Size = %d, want 0", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertContainsDelete(t *testing.T) {
	for name, mk := range treeVariants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			h := mustHandle(t, tr)
			defer h.Close()
			if !h.Insert(10, 100) {
				t.Fatal("first insert failed")
			}
			if h.Insert(10, 200) {
				t.Fatal("duplicate insert succeeded")
			}
			if v, ok := h.Get(10); !ok || v != 100 {
				t.Fatalf("Get(10) = %d,%v want 100,true", v, ok)
			}
			if !h.Delete(10) {
				t.Fatal("delete failed")
			}
			if h.Contains(10) {
				t.Fatal("deleted key still present")
			}
			if h.Delete(10) {
				t.Fatal("double delete succeeded")
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSentinelKeyPanics(t *testing.T) {
	tr := New(prcu.NewEER(prcu.Options{}), FuncDomain())
	h := mustHandle(t, tr)
	defer h.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("inserting the reserved key must panic")
		}
	}()
	h.Insert(^uint64(0), 0)
}

// TestDeleteShapes exercises every structural deletion case: leaf, single
// left child, single right child, two children with adjacent successor
// (prevSucc == curr), and two children with a deep successor.
func TestDeleteShapes(t *testing.T) {
	for name, mk := range treeVariants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			h := mustHandle(t, tr)
			defer h.Close()

			// Build:        50
			//            /      \
			//          30        70
			//         /  \      /  \
			//       20    40  60    90
			//                        \
			//                  ...    95 (deep successor shapes below)
			for _, k := range []uint64{50, 30, 70, 20, 40, 60, 90, 95} {
				h.Insert(k, k*10)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}

			// Leaf.
			if !h.Delete(20) {
				t.Fatal("delete leaf")
			}
			// Single right child (90 -> 95).
			if !h.Delete(90) {
				t.Fatal("delete one-right-child node")
			}
			// Re-add to get a single left child case.
			h.Insert(35, 0)
			if !h.Delete(40) { // 40 has left child 35? no: 35 < 40, child of 40? 35>30, <40: 30's right is 40, 35 goes left of 40.
				t.Fatal("delete one-left-child node")
			}
			// Two children, adjacent successor: 50's successor is 60 (child
			// of 70): deep-ish. Delete 30 first: children 20(gone) => 35
			// left, nothing right? After deletions: 30 has left 35, no
			// right -> single child. Delete 70: children 60 and 95;
			// successor of 70 is 95 (prevSucc == curr since 95 is 70's
			// right child with no left subtree).
			if !h.Delete(70) {
				t.Fatal("delete two-children node with adjacent successor")
			}
			if h.Contains(70) || !h.Contains(95) || !h.Contains(60) {
				t.Fatal("tree contents wrong after adjacent-successor delete")
			}
			// Two children, deep successor: 50 has left 30-subtree and
			// right subtree now rooted at 95 with left child 60; successor
			// of 50 is 60, two hops down.
			if !h.Delete(50) {
				t.Fatal("delete two-children node with deep successor")
			}
			if h.Contains(50) || !h.Contains(60) || !h.Contains(95) {
				t.Fatal("tree contents wrong after deep-successor delete")
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			want := []uint64{30, 35, 60, 95}
			got := tr.Keys()
			if len(got) != len(want) {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Keys = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestSequentialAgainstModel drives one variant through a long random
// schedule, mirroring every operation into a map and comparing outcomes.
func TestSequentialAgainstModel(t *testing.T) {
	for name, mk := range treeVariants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			h := mustHandle(t, tr)
			defer h.Close()
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(200))
				switch rng.Intn(3) {
				case 0:
					_, inModel := model[k]
					if got := h.Insert(k, k+1); got == inModel {
						t.Fatalf("op %d: Insert(%d) = %v, model has key: %v", i, k, got, inModel)
					}
					if !inModel {
						model[k] = k + 1
					}
				case 1:
					_, inModel := model[k]
					if got := h.Delete(k); got != inModel {
						t.Fatalf("op %d: Delete(%d) = %v, model has key: %v", i, k, got, inModel)
					}
					delete(model, k)
				default:
					v, inModel := model[k]
					gv, got := h.Get(k)
					if got != inModel || (got && gv != v) {
						t.Fatalf("op %d: Get(%d) = %d,%v, model %d,%v", i, k, gv, got, v, inModel)
					}
				}
			}
			if tr.Size() != len(model) {
				t.Fatalf("Size = %d, model %d", tr.Size(), len(model))
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			keys := tr.Keys()
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatal("Keys not sorted")
			}
		})
	}
}

// TestQuickInsertDeleteSet is a property test: any sequence of inserts and
// deletes leaves the tree holding exactly the set a reference map holds.
func TestQuickInsertDeleteSet(t *testing.T) {
	tr := New(prcu.NewD(prcu.Options{}), CompressedDomain(16))
	h, err := tr.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	f := func(ops []uint16) bool {
		model := map[uint64]bool{}
		for _, op := range ops {
			k := uint64(op % 97)
			if op&0x8000 != 0 {
				h.Delete(k)
				delete(model, k)
			} else {
				h.Insert(k, k)
				model[k] = true
			}
		}
		for k := uint64(0); k < 97; k++ {
			if h.Contains(k) != model[k] {
				return false
			}
		}
		if tr.Validate() != nil {
			return false
		}
		// Drain the tree so the next quick iteration starts clean.
		for k := uint64(0); k < 97; k++ {
			h.Delete(k)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDisjointKeys has goroutines updating disjoint key ranges —
// every operation must succeed exactly as in isolation.
func TestConcurrentDisjointKeys(t *testing.T) {
	for name, mk := range treeVariants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			const gs, perG = 8, 300
			var wg sync.WaitGroup
			errs := make(chan error, gs)
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := tr.NewHandle()
					if err != nil {
						errs <- err
						return
					}
					defer h.Close()
					base := uint64(g * 10000)
					for i := uint64(0); i < perG; i++ {
						if !h.Insert(base+i, i) {
							t.Errorf("goroutine %d: insert %d failed", g, base+i)
							return
						}
					}
					for i := uint64(0); i < perG; i++ {
						if !h.Contains(base + i) {
							t.Errorf("goroutine %d: key %d missing", g, base+i)
							return
						}
					}
					for i := uint64(0); i < perG; i += 2 {
						if !h.Delete(base + i) {
							t.Errorf("goroutine %d: delete %d failed", g, base+i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if want := gs * perG / 2; tr.Size() != want {
				t.Fatalf("Size = %d, want %d", tr.Size(), want)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentMixedStress hammers a small hot key range from many
// goroutines and validates the final structure. Small ranges maximize
// two-children deletions and successor races.
func TestConcurrentMixedStress(t *testing.T) {
	for name, mk := range treeVariants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			const gs = 8
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := tr.NewHandle()
					if err != nil {
						t.Error(err)
						return
					}
					defer h.Close()
					rng := rand.New(rand.NewSource(int64(g)))
					for !stop.Load() {
						k := uint64(rng.Intn(64))
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
			time.Sleep(300 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPermanentKeysAlwaysVisible pins down the consistency property the
// wait-for-readers exists for: while deleters churn neighbors, a reader
// must never miss a key that is permanently in the tree. Missing one would
// be exactly the Figure 4 anomaly (successor moved up while a traversal was
// inside the old subtree).
func TestPermanentKeysAlwaysVisible(t *testing.T) {
	for name, mk := range treeVariants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			setup, err := tr.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			permanent := []uint64{10, 25, 40, 55, 70, 85}
			for _, k := range permanent {
				setup.Insert(k, k)
			}
			setup.Close()

			var stop atomic.Bool
			var wg sync.WaitGroup
			// Churners insert/delete everything except the permanent keys.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := tr.NewHandle()
					if err != nil {
						t.Error(err)
						return
					}
					defer h.Close()
					rng := rand.New(rand.NewSource(int64(100 + g)))
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
							h.Insert(k, k)
						} else {
							h.Delete(k)
						}
					}
				}(g)
			}
			// Readers assert the permanent keys never vanish.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, err := tr.NewHandle()
					if err != nil {
						t.Error(err)
						return
					}
					defer h.Close()
					for !stop.Load() {
						for _, p := range permanent {
							if !h.Contains(p) {
								t.Errorf("permanent key %d missing from a read", p)
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
		})
	}
}

func TestDefaultDomain(t *testing.T) {
	for _, f := range prcu.Flavors() {
		d := DefaultDomain(f)
		if d.MapKey == nil || d.WaitPredicate == nil {
			t.Fatalf("DefaultDomain(%s) incomplete", f)
		}
		// Consistency: for keys in (low, high], the predicate must hold
		// for the mapped value.
		for low := uint64(0); low < 50; low += 7 {
			high := low + 1 + low%13
			p := d.WaitPredicate(low, high)
			for k := low + 1; k <= high; k++ {
				if !p.Holds(d.MapKey(k)) {
					t.Fatalf("DefaultDomain(%s): predicate for (%d,%d] misses key %d", f, low, high, k)
				}
			}
		}
	}
}

func TestCompressedDomainConsistency(t *testing.T) {
	f := func(low16, span8, s8 uint8) bool {
		s := uint64(s8%32) + 1
		d := CompressedDomain(s)
		low := uint64(low16)
		high := low + 1 + uint64(span8%64)
		p := d.WaitPredicate(low, high)
		for k := low + 1; k <= high; k++ {
			if !p.Holds(d.MapKey(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedDomainZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CompressedDomain(0) must panic")
		}
	}()
	CompressedDomain(0)
}
