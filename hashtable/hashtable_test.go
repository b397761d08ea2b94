package hashtable

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"prcu"
)

func mapVariants(buckets int) map[string]func() *Map[uint64, uint64] {
	return mapVariantsOn(buckets, func(r prcu.RCU) prcu.RCU { return r })
}

// mapVariantsOn is mapVariants with every engine passed through wrap.
func mapVariantsOn(buckets int, wrap func(prcu.RCU) prcu.RCU) map[string]func() *Map[uint64, uint64] {
	out := map[string]func() *Map[uint64, uint64]{}
	for name, mk := range map[string]func(prcu.Options) prcu.RCU{
		"EER": prcu.NewEER, "D": prcu.NewD, "DEER": prcu.NewDEER, "Time": prcu.NewTimeRCU,
		"URCU": prcu.NewURCU, "Tree": prcu.NewTreeRCU, "Dist": prcu.NewDistRCU,
	} {
		out[name] = func() *Map[uint64, uint64] {
			return NewModulo(wrap(mk(prcu.Options{})), buckets)
		}
	}
	return out
}

// hookedWaits is an engine that runs before ahead of every grace period
// (used by pointer: engines are compared for identity).
type hookedWaits struct {
	prcu.RCU
	before func()
}

func (h *hookedWaits) WaitForReaders(p prcu.Predicate) {
	h.before()
	h.RCU.WaitForReaders(p)
}

func mustHandle(t *testing.T, m *Map[uint64, uint64]) *Handle[uint64, uint64] {
	t.Helper()
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBucketCountValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two bucket count must panic")
		}
	}()
	NewModulo(prcu.NewEER(prcu.Options{}), 12)
}

func TestBasicOperations(t *testing.T) {
	for name, mk := range mapVariants(8) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			h := mustHandle(t, m)
			defer h.Close()
			if h.Contains(1) {
				t.Fatal("empty map contains 1")
			}
			if !m.Insert(1, 11) || !m.Insert(2, 22) || !m.Insert(9, 99) {
				t.Fatal("insert failed")
			}
			if m.Insert(1, 111) {
				t.Fatal("duplicate insert succeeded")
			}
			if v, ok := h.Get(1); !ok || v != 11 {
				t.Fatalf("Get(1) = %d,%v, want 11,true", v, ok)
			}
			// 1 and 9 collide in an 8-bucket table (modulo hash).
			if v, ok := h.Get(9); !ok || v != 99 {
				t.Fatalf("Get(9) = %d,%v, want 99,true", v, ok)
			}
			if !m.Delete(1) || m.Delete(1) {
				t.Fatal("delete semantics wrong")
			}
			if h.Contains(1) || !h.Contains(9) {
				t.Fatal("contents wrong after delete")
			}
			if m.Size() != 2 {
				t.Fatalf("Size = %d, want 2", m.Size())
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExpandPreservesContents(t *testing.T) {
	for name, mk := range mapVariants(4) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			h := mustHandle(t, m)
			defer h.Close()
			const n = 200
			for k := uint64(0); k < n; k++ {
				m.Insert(k, k*3)
			}
			for i := 0; i < 4; i++ {
				before := m.Buckets()
				m.Expand()
				if got := m.Buckets(); got != before*2 {
					t.Fatalf("Buckets after expand = %d, want %d", got, before*2)
				}
				for k := uint64(0); k < n; k++ {
					if v, ok := h.Get(k); !ok || v != k*3 {
						t.Fatalf("after expand %d: Get(%d) = %d,%v", i, k, v, ok)
					}
				}
				if err := m.Validate(); err != nil {
					t.Fatalf("after expand %d: %v", i, err)
				}
			}
			if m.ExpansionWaits() == 0 {
				t.Fatal("expansion issued no WaitForReaders calls")
			}
		})
	}
}

// TestExpandAllocatesPerTableNotPerBucket: an expansion allocates its new
// table and one split iterator, not a predicate closure per old bucket,
// and counts its waits exactly.
func TestExpandAllocatesPerTableNotPerBucket(t *testing.T) {
	const buckets, n = 1 << 10, 1 << 13
	m := NewModulo(prcu.NewDEER(prcu.Options{}), buckets)
	for k := uint64(0); k < n; k++ {
		m.Insert(k, k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Expand()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 32 {
		t.Errorf("Expand of %d buckets made %d allocations, want a handful", buckets, got)
	}
	// Keys 0..n-1 under the modulo hash: every old chain alternates between
	// its two destinations, so each of its nodes but the last gets its link
	// cut, behind one wait.
	if got, want := m.ExpansionWaits(), int64(n-buckets); got != want {
		t.Errorf("ExpansionWaits = %d, want %d", got, want)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFactor(t *testing.T) {
	m := NewModulo(prcu.NewEER(prcu.Options{}), 8)
	for k := uint64(0); k < 16; k++ {
		m.Insert(k, k)
	}
	if lf := m.LoadFactor(); lf != 2.0 {
		t.Fatalf("LoadFactor = %v, want 2.0", lf)
	}
	m.Expand()
	if lf := m.LoadFactor(); lf != 1.0 {
		t.Fatalf("LoadFactor after expand = %v, want 1.0", lf)
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	m := NewModulo(prcu.NewD(prcu.Options{}), 8)
	h := mustHandle(t, m)
	defer h.Close()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(500))
		switch rng.Intn(4) {
		case 0:
			_, inModel := model[k]
			if got := m.Insert(k, k+1); got == inModel {
				t.Fatalf("op %d: Insert(%d) = %v, model: %v", i, k, got, inModel)
			}
			if !inModel {
				model[k] = k + 1
			}
		case 1:
			_, inModel := model[k]
			if got := m.Delete(k); got != inModel {
				t.Fatalf("op %d: Delete(%d) = %v, model: %v", i, k, got, inModel)
			}
			delete(model, k)
		case 2:
			v, inModel := model[k]
			gv, got := h.Get(k)
			if got != inModel || (got && gv != v) {
				t.Fatalf("op %d: Get(%d) = %d,%v, model %d,%v", i, k, gv, got, v, inModel)
			}
		default:
			if i%1000 == 999 && m.Buckets() < 256 {
				m.Expand()
			}
		}
	}
	if m.Size() != len(model) {
		t.Fatalf("Size = %d, model %d", m.Size(), len(model))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInsertDeleteSet(t *testing.T) {
	m := NewModulo(prcu.NewDEER(prcu.Options{}), 16)
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	f := func(ops []uint16) bool {
		model := map[uint64]bool{}
		for _, op := range ops {
			k := uint64(op % 127)
			if op&0x8000 != 0 {
				m.Delete(k)
				delete(model, k)
			} else {
				m.Insert(k, k)
				model[k] = true
			}
		}
		for k := uint64(0); k < 127; k++ {
			if h.Contains(k) != model[k] {
				return false
			}
		}
		if m.Validate() != nil {
			return false
		}
		for k := uint64(0); k < 127; k++ {
			m.Delete(k)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupsDuringExpansion is the Figure 3 anomaly test: while the table
// expands, concurrent lookups must never miss a key that is permanently
// present. A missing wait before any unzip pointer change makes this fail.
//
// Readers yield outside the section after each lookup. Without that, six
// never-yielding readers on fewer Ps are descheduled inside 100-node chain
// walks, and on the wait-for-everyone engines every unzip step's grace
// period has to outlast a full run-queue rotation of 10 ms preemption
// slices — minutes per variant, which says something about plain RCU but
// nothing about the anomaly. With yielding readers the opposite failure is
// possible: five expansions over quiescent readers finish before a reader
// is even scheduled, and the test passes having tested nothing. So the
// first Expand is held until every reader has completed a lookup, every
// unzip step's wait first hands the readers a turn — and does not start
// until every reader has completed a lookup with an Expand in flight.
func TestLookupsDuringExpansion(t *testing.T) {
	const readers = 6
	// minDuring is the least total of lookups completed during the five
	// expansions, under a tenth of the smallest total (5807) seen in 130
	// runs of every variant on a 2-CPU host: each of the ~2000 waits yields
	// once and each reader completes about one lookup per yield.
	const minDuring = 500
	var beforeWait func()
	variants := mapVariantsOn(4, func(r prcu.RCU) prcu.RCU {
		return &hookedWaits{r, func() { beforeWait() }}
	})
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			const n = 400 // load factor 100 on 4 buckets: long chains, many unzip steps
			var stop, expanding atomic.Bool
			var during [readers]atomic.Int64
			var warm atomic.Int32 // readers that have completed a lookup
			beforeWait = func() {
				runtime.Gosched()
				for g := 0; g < readers && expanding.Load(); g++ {
					for during[g].Load() == 0 && !stop.Load() {
						runtime.Gosched()
					}
				}
			}
			m := mk()
			for k := uint64(0); k < n; k++ {
				m.Insert(k, k)
			}
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := m.NewHandle()
					if err != nil {
						t.Error(err)
						stop.Store(true)
						return
					}
					defer h.Close()
					rng := rand.New(rand.NewSource(int64(g)))
					warmed := false
					for !stop.Load() {
						k := uint64(rng.Intn(n))
						if v, ok := h.Get(k); !ok || v != k {
							t.Errorf("Get(%d) = %d,%v during expansion", k, v, ok)
							stop.Store(true)
							return
						}
						if expanding.Load() {
							during[g].Add(1)
						} else if !warmed {
							warmed = true
							warm.Add(1)
						}
						runtime.Gosched()
					}
				}(g)
			}
			for warm.Load() < readers && !stop.Load() {
				runtime.Gosched()
			}
			expanding.Store(true)
			for i := 0; i < 5 && !stop.Load(); i++ {
				m.Expand()
			}
			expanding.Store(false)
			stop.Store(true)
			wg.Wait()
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if m.Buckets() != 4*32 && !t.Failed() {
				t.Fatalf("Buckets = %d, want %d", m.Buckets(), 4*32)
			}
			var total int64
			for g := range during {
				d := during[g].Load()
				if d == 0 && !t.Failed() {
					t.Errorf("reader %d completed no lookup while the table expanded", g)
				}
				total += d
			}
			if total < minDuring && !t.Failed() {
				t.Errorf("%d lookups completed while the table expanded, want at least %d", total, minDuring)
			}
			if testing.Verbose() {
				t.Logf("lookups during expansion: %d", total)
			}
		})
	}
}

// TestUpdatesBlockedDuringExpansion verifies updates wait out an expansion
// and then land correctly.
func TestUpdatesBlockedDuringExpansion(t *testing.T) {
	m := NewModulo(prcu.NewTimeRCU(prcu.Options{}), 4)
	for k := uint64(0); k < 200; k++ {
		m.Insert(k, k)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			base := uint64(1000 * (g + 1))
			for i := uint64(0); i < 50; i++ {
				if !m.Insert(base+i, i) {
					t.Errorf("insert %d failed", base+i)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		m.Expand()
		m.Expand()
	}()
	close(start)
	wg.Wait()
	if want := 200 + 4*50; m.Size() != want {
		t.Fatalf("Size = %d, want %d", m.Size(), want)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	h := mustHandle(t, m)
	defer h.Close()
	for g := 0; g < 4; g++ {
		base := uint64(1000 * (g + 1))
		for i := uint64(0); i < 50; i++ {
			if !h.Contains(base + i) {
				t.Fatalf("key %d missing after expansion", base+i)
			}
		}
	}
}

// TestConcurrentUpdatesAndLookups stresses the non-expanding fast path.
func TestConcurrentUpdatesAndLookups(t *testing.T) {
	for name, mk := range mapVariants(64) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for !stop.Load() {
						k := uint64(rng.Intn(256))
						if rng.Intn(2) == 0 {
							m.Insert(k, k)
						} else {
							m.Delete(k)
						}
					}
				}(g)
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := m.NewHandle()
					if err != nil {
						t.Error(err)
						return
					}
					defer h.Close()
					rng := rand.New(rand.NewSource(int64(100 + g)))
					for !stop.Load() {
						k := uint64(rng.Intn(256))
						if v, ok := h.Get(k); ok && v != k {
							t.Errorf("Get(%d) returned foreign value %d", k, v)
							stop.Store(true)
							return
						}
					}
				}(g)
			}
			time.Sleep(250 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
