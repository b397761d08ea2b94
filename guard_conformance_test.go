// Guard conformance suite: the typed scope layer's contract, run over
// every engine flavor, mirroring conformance_test.go's structure. The
// guard package adds no synchronization of its own — these properties
// check that its bookkeeping (scope liveness, panic-safe Read, typed
// retirement through the reclaimer) composes correctly with each engine's
// Enter/Exit/WaitForReaders protocol:
//
//   - scope reads observe published values and scopes die on exit, on
//     every flavor;
//   - a panic inside Read closes the section: a covering wait completes
//     instead of blocking on the wedged reader, and the reader and its
//     reusable scope storage survive for the next section;
//   - typed retirement under churn: concurrent guarded readers traverse
//     a list while an updater unlinks and retires nodes through a
//     Retirer; every free runs after its covering grace period, and no
//     reader ever observes a node that was freed before its section
//     ended (asserted by poisoning nodes in the free callback) — once
//     over one list covered by All(), once over buckets covered by a
//     selective Singleton(bucket).
package prcu_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"prcu"
)

const poisonedKey = ^uint64(0)

type gnode struct {
	key  uint64
	val  uint64
	next prcu.Cell[gnode]
}

func TestGuardConformance(t *testing.T) {
	props := []struct {
		name string
		run  func(t *testing.T, f prcu.Flavor, r prcu.RCU)
	}{
		{"ScopedReads", guardScopedReads},
		{"PanicInsideRead", guardPanicInsideRead},
		{"RetireUnderChurn", guardRetireUnderChurn},
		{"RetireSelectiveUnderChurn", guardRetireSelectiveUnderChurn},
	}
	for _, f := range prcu.Flavors() {
		f := f
		t.Run(string(f), func(t *testing.T) {
			for _, p := range props {
				p := p
				t.Run(p.name, func(t *testing.T) {
					p.run(t, f, prcu.MustNew(f, prcu.Options{}))
				})
			}
		})
	}
}

// guardScopedReads: loads demand a live scope and see published values.
func guardScopedReads(t *testing.T, f prcu.Flavor, r prcu.RCU) {
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	g := prcu.WrapReader(rd)
	defer g.Unregister()

	cell := prcu.NewGuarded(&gnode{key: 1, val: 10})
	s := g.Enter(1)
	if n := cell.Load(s); n.val != 10 {
		t.Fatalf("Load = %+v", n)
	}
	g.Exit(s)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Load through dead scope did not panic")
			}
		}()
		cell.Load(s)
	}()

	cell.Publish(&gnode{key: 2, val: 20})
	g.Read(2, func(s *prcu.Scope) {
		if n := cell.Load(s); n.val != 20 {
			t.Errorf("Load after Publish = %+v", n)
		}
	})
}

// guardPanicInsideRead: the section closes despite the panic, so a
// covering wait completes and the reader remains usable.
func guardPanicInsideRead(t *testing.T, f prcu.Flavor, r prcu.RCU) {
	rd, err := r.Register()
	if err != nil {
		t.Fatal(err)
	}
	g := prcu.WrapReader(rd)
	defer g.Unregister()

	var leaked *prcu.Scope
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic inside Read was swallowed")
			}
		}()
		g.Read(3, func(s *prcu.Scope) {
			leaked = s
			panic("reader panics mid-section")
		})
	}()

	// Must not block: the panicking section was exited on the way out.
	done := make(chan struct{})
	go func() {
		r.WaitForReaders(prcu.All())
		close(done)
	}()
	mustComplete(t, done, "wait covering a panicked-but-closed section")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leaked scope from panicked Read is still live")
			}
		}()
		leaked.Value()
	}()

	g.Read(4, func(s *prcu.Scope) {}) // reader is reusable
}

// guardRetireUnderChurn: typed retirement with concurrent guarded
// traversals of one list. A reader walks from the head to its own key, so
// readers on every key may hold the victim and the retirement is covered
// by All(): a predicate on the victim's key alone would let the
// predicate-aware flavors free it under a reader on another key.
func guardRetireUnderChurn(t *testing.T, f prcu.Flavor, r prcu.RCU) {
	guardRetireChurn(t, r, 1, false)
}

// guardRetireSelectiveUnderChurn: the same churn over hash-table-style
// buckets, the paper's use of a selective predicate. A reader enters on
// its bucket and touches that bucket's list only, so Singleton(bucket)
// covers every reader that may hold the victim; a Retirer or reclaimer
// that dropped or mis-grouped the predicate would free under one of them.
func guardRetireSelectiveUnderChurn(t *testing.T, f prcu.Flavor, r prcu.RCU) {
	guardRetireChurn(t, r, 8, true)
}

// guardRetireChurn spreads the keys over buckets lists and churns them.
// Freed nodes are poisoned; a reader observing the poison inside a section
// would mean a free ran before its covering grace period. With selective
// set, readers enter on their bucket and retirements are covered by
// Singleton(bucket); otherwise readers enter on their key and retirements
// are covered by All().
func guardRetireChurn(t *testing.T, r prcu.RCU, buckets uint64, selective bool) {
	const (
		keys    = 64
		readers = 3
		cycles  = 4000
	)
	// Flush immediately: the default 200µs accumulation window outlasts
	// every section here, so a free under the wrong predicate would still
	// land after the reader it ignored had left. Measured with the
	// selective cover deliberately pointed at the neighbouring bucket,
	// this shape fails 7–9 runs in 10 on each of eer, d and deer.
	rec := prcu.NewReclaimer(r, prcu.ReclaimConfig{FlushDelay: -1})

	lists := make([]*prcu.List[gnode], buckets)
	for b := range lists {
		lists[b] = prcu.NewList(func(n *gnode) *prcu.Cell[gnode] { return &n.next })
	}
	var retiredCount, freedCount atomic.Int64
	ret := prcu.NewRetirer(rec, 0, func(n *gnode) {
		n.key = poisonedKey
		freedCount.Add(1)
	})
	for k := uint64(keys); k > 0; k-- {
		lists[(k-1)%buckets].PushHead(&gnode{key: k - 1, val: (k - 1) * 100})
	}

	var stop atomic.Bool
	var sawPoison atomic.Int64
	var wg, ready sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rd, err := r.Register()
			if err != nil {
				ready.Done()
				t.Error(err)
				return
			}
			g := prcu.WrapReader(rd)
			defer g.Unregister()
			state := seed
			for first := true; !stop.Load(); first = false {
				state = state*6364136223846793005 + 1442695040888963407
				key := (state >> 33) % keys
				bucket := key % buckets
				value := key
				if selective {
					value = bucket
				}
				g.Read(value, func(s *prcu.Scope) {
					for n := lists[bucket].Head(s); n != nil; n = n.next.Load(s) {
						// Hold n across a yield before looking at it, so
						// a free that did not wait for this section has
						// run by the time the key is read.
						runtime.Gosched()
						if n.key == poisonedKey {
							sawPoison.Add(1)
							return
						}
						if n.key == key {
							return
						}
					}
				})
				if first {
					ready.Done()
				}
			}
		}(uint64(i + 1))
	}

	// The updater repeatedly unlinks the second node of a bucket, retires
	// it, and pushes a replacement. It starts once every reader is
	// traversing and yields each cycle, so that on a host with few
	// processors the churn overlaps the readers and the reclaimer's
	// flushes instead of finishing before either runs.
	ready.Wait()
	for c := uint64(0); c < cycles; c++ {
		bucket := c % buckets
		list := lists[bucket]
		h := list.HeadLocked()
		victim := list.NextLocked(h)
		if victim == nil {
			break
		}
		vkey, vval := victim.key, victim.val
		list.Unlink(h, victim)
		cover := prcu.All()
		if selective {
			cover = prcu.Singleton(bucket)
		}
		ret.Retire(cover, victim)
		retiredCount.Add(1)
		list.PushHead(&gnode{key: vkey, val: vval + 1})
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	rec.Barrier()
	rec.Close()

	if got := sawPoison.Load(); got != 0 {
		t.Fatalf("readers observed %d poisoned (freed) nodes inside open sections", got)
	}
	if retiredCount.Load() != freedCount.Load() {
		t.Fatalf("retired %d nodes but %d frees ran", retiredCount.Load(), freedCount.Load())
	}
	if retiredCount.Load() == 0 {
		t.Fatal("churn loop retired nothing")
	}
}
