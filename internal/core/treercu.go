package core

import (
	"context"
	"sync"
	"sync/atomic"

	"prcu/internal/obs"
	"prcu/internal/pad"
)

// treeFanout is the number of child bits packed per tree word. The Linux
// implementation packs more, but a small fan-out exercises the hierarchy
// even at modest reader counts, which is the structural property under
// test.
const treeFanout = 8

// treeLevels is one generation of the combining tree, sized to cover a
// fixed span of reader slots. When the registry grows past the span, the
// next WaitForReaders builds a bigger generation and swaps it in — always
// under the waiter lock. A cancelled wait can abandon seeded bits, but
// that is benign: every Exit clears its own bit against the current
// generation (a no-op when unset), the next wait re-snapshots and
// re-seeds still-open readers with Store overwrites, and a swapped-out
// generation is discarded whole, so stuck bits are never polled.
type treeLevels struct {
	// slots is the number of leaf slots this generation covers.
	slots int
	// levels[0] are the leaves (bit j%treeFanout of word j/treeFanout is
	// reader j); levels[l+1] has one bit per levels[l] word. The top level
	// is a single word — the root the waiter polls.
	levels [][]pad.Uint64
	// masks/waited are waiter-local scratch, reused under mu.
	masks  [][]uint64
	waited []treeWaited
}

type treeWaited struct {
	gen  uint64
	slot int
	// state points at the reader's generation counter, so the re-check
	// does not have to chase the slot back through the segment list.
	state *pad.Uint64
}

// buildTree returns an all-zero tree generation covering slots readers.
func buildTree(slots int) *treeLevels {
	tl := &treeLevels{slots: slots}
	for n := slots; ; n = (n + treeFanout - 1) / treeFanout {
		words := (n + treeFanout - 1) / treeFanout
		tl.levels = append(tl.levels, make([]pad.Uint64, words))
		tl.masks = append(tl.masks, make([]uint64, words))
		if words == 1 {
			break
		}
	}
	return tl
}

// TreeRCU is the tree kernel. As NewTreeRCU builds it, it implements the
// Linux-kernel hierarchical RCU algorithm (§2.2) under the paper's
// userspace restriction: the states between data structure operations are
// treated as quiescent, so a reader reports quiescence when it exits its
// critical section rather than at context switches. (As the paper notes,
// this gives far shorter grace periods than the in-kernel original; it is
// the only way to apply Tree RCU to general userspace code.)
//
// Conceptually there is a bit per reader; wait-for-readers sets the bits of
// readers currently inside critical sections and a reader's exit clears its
// bit, propagating up the tree whenever it clears the last bit of a word.
// The waiter polls only the root. Waiters are serialized, as in Linux.
//
// As NewDistRCU builds it, with no tree at all, it is the
// distributed-counters RCU of Arbel and Attiya (§2.2), the RCU the
// original CITRUS tree used (the paper's Time RCU is its TSC-optimized
// successor): a waiter snapshots each reader's generation and waits for
// the reader either to advance it or to be outside a critical section.
// Those waits are read-only, so — like the PRCU engines — concurrent waits
// scale without synchronizing with each other.
//
// Reader cost is the algorithm's selling point: Enter and Exit touch only
// the reader's own padded generation counter (plus, on Tree RCU, the leaf
// bit on exit when a grace period is in flight), so the read-side is
// contention free.
type TreeRCU struct {
	// Per-reader state is a generation counter: even = quiescent, odd =
	// inside a critical section; the waiter snapshots generations to
	// resolve the race between seeding a reader's bit and that reader
	// exiting.
	base[pad.Uint64]
	mu sync.Mutex
	// Every wait writes mu and every reader's Exit loads tree: keep them —
	// and whatever the allocator places after the engine — on separate
	// cache lines (measured: Tree sections 280 → 212 ns in engine_sweep).
	_ [pad.CacheLineSize]byte
	// tree is the current combining-tree generation, nil for Dist RCU.
	// Swapped only under mu and only while all-zero; readers load it on
	// Exit. SC atomics order a reader's post-Enter tree load after the swap
	// that preceded the waiter's snapshot of that reader, so a seeded
	// reader always clears its bit in the generation it was seeded into
	// (see WaitForReadersCtx).
	tree atomic.Pointer[treeLevels]
	_    [pad.CacheLineSize]byte
}

// NewTreeRCU returns a Tree RCU engine.
func NewTreeRCU() *TreeRCU {
	t := &TreeRCU{}
	t.setup("Tree RCU", 1, zeroSeg[pad.Uint64])
	t.tree.Store(buildTree(t.reg.capacity()))
	return t
}

// NewDistRCU returns a distributed-counters RCU engine: the tree kernel
// with no levels.
func NewDistRCU() *TreeRCU {
	t := &TreeRCU{}
	t.setup("Dist RCU", 1, zeroSeg[pad.Uint64])
	return t
}

// Levels returns the height of Tree RCU's combining tree (for tests).
func (t *TreeRCU) Levels() int { return len(t.tree.Load().levels) }

type treeReader struct {
	readerGuard
	// tree is whether the engine has levels, copied at Register so that
	// Dist RCU's Exit loads nothing of the engine.
	tree  bool
	t     *TreeRCU
	state *pad.Uint64
	lane  *obs.ReaderLane
	slot  int
}

// Register implements RCU.
func (t *TreeRCU) Register() (Reader, error) {
	slot, s := t.reg.acquire()
	if s.Load()&1 == 1 {
		// A previous owner must have left the slot quiescent.
		panic("prcu: reader slot reused while marked in-CS")
	}
	return &treeReader{tree: t.tree.Load() != nil, t: t, state: s, lane: t.lane(slot), slot: slot}, nil
}

// Enter implements Reader: flip the generation to odd. No shared-global
// work — this is the (near) zero-overhead read side of both flavors. The
// value is ignored — the tree kernel is a plain RCU.
func (r *treeReader) Enter(v Value) {
	r.check()
	r.state.Add(1)
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader: flip the generation to even and, on Tree RCU,
// report quiescence by clearing our leaf bit if a waiter seeded it.
func (r *treeReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.state.Add(1)
	if r.tree {
		clearBit(r.t.tree.Load(), 0, r.slot/treeFanout, uint64(1)<<(r.slot%treeFanout))
	}
}

// Do implements Reader.
func (r *treeReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *treeReader) Unregister() {
	r.closing()
	if r.state.Load()&1 == 1 {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.t.reg.release(r.slot)
	r.state = nil
}

// clearBit clears bit in word idx of the given level; when the word drops
// to zero it propagates, clearing this word's bit in the parent. Clearing
// an unset bit is a no-op and never propagates — that asymmetry is what
// lets exits race harmlessly with a waiter that has not (or will not) seed
// their bit. An index beyond the generation's span belongs to a reader
// registered after the generation was built; such a reader is never
// seeded into it, so there is nothing to clear.
func clearBit(tl *treeLevels, level, idx int, bit uint64) {
	if idx >= len(tl.levels[level]) {
		return
	}
	w := &tl.levels[level][idx]
	for {
		old := w.Load()
		if old&bit == 0 {
			return
		}
		nw := old &^ bit
		if w.CompareAndSwap(old, nw) {
			if nw == 0 && level+1 < len(tl.levels) {
				clearBit(tl, level+1, idx/treeFanout, uint64(1)<<(idx%treeFanout))
			}
			return
		}
	}
}

// WaitForReaders implements RCU.
func (t *TreeRCU) WaitForReaders(p Predicate) { t.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers, bounded by ctx when
// it is non-nil. The predicate is ignored.
//
// With no tree (Dist RCU) the wait takes no lock: a reader found inside a
// section (odd generation) is waited for until its generation moves. The
// scan is read-only, so an abandoned wait leaves nothing behind.
//
// With a tree, the protocol is: under the waiter lock, grow the tree
// generation if the registry outgrew it (safe: the swap is ordered before
// every snapshot read below, so any reader we seed observes the new
// generation on exit, and a swapped-out generation — even one with bits a
// cancelled wait abandoned — is discarded whole); snapshot every reader's
// generation and collect those currently inside a critical section; publish
// their bits top-down (ancestors before leaves) so an exit can never
// propagate a clear past an unset ancestor; re-check each collected
// generation and clear the bits of readers that exited while we were
// seeding; then poll the root.
//
// Readers in slots beyond the generation's span registered after the span
// was fixed — i.e. after this wait began — so their critical sections are
// not pre-existing and are legitimately skipped.
//
// Cancellation mid-poll abandons this wait's seeded bits; that is safe
// because still-open readers clear their own bits on exit and the next
// wait re-snapshots and overwrites the bitmap (see treeLevels).
func (t *TreeRCU) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &t.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	if t.tree.Load() == nil {
		t.reg.forEachActive(func(g *pad.Uint64, slot int) bool {
			s.scanned++
			gen := g.Load()
			return gen&1 == 0 || s.await(slot, func() bool { return g.Load() == gen })
		})
		return s.end()
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	tl := t.tree.Load()
	if span := t.reg.capacity(); span > tl.slots {
		tl = buildTree(span)
		t.tree.Store(tl)
	}

	tl.waited = tl.waited[:0]
	for l := range tl.masks {
		clear(tl.masks[l])
	}
	t.reg.forEachActive(func(st *pad.Uint64, slot int) bool {
		if slot >= tl.slots {
			return false
		}
		s.scanned++
		if gen := st.Load(); gen&1 == 1 {
			tl.waited = append(tl.waited, treeWaited{gen: gen, slot: slot, state: st})
			tl.masks[0][slot/treeFanout] |= 1 << (slot % treeFanout)
		}
		return true
	})
	if len(tl.waited) == 0 {
		return s.end()
	}
	for l := 0; l+1 < len(tl.masks); l++ {
		for idx, mask := range tl.masks[l] {
			if mask != 0 {
				tl.masks[l+1][idx/treeFanout] |= 1 << (idx % treeFanout)
			}
		}
	}
	for l := len(tl.levels) - 1; l >= 0; l-- {
		for idx, mask := range tl.masks[l] {
			if mask != 0 {
				tl.levels[l][idx].Store(mask)
			}
		}
	}
	// Re-check: a reader that exited (or moved to a later section) between
	// our snapshot and our seeding would never clear its bit — clear it on
	// its behalf. If it is still in the snapshotted section, its own exit
	// will clear.
	for _, wd := range tl.waited {
		if wd.state.Load() != wd.gen {
			clearBit(tl, 0, wd.slot/treeFanout, uint64(1)<<(wd.slot%treeFanout))
		}
	}
	// The tree aggregates per-reader progress, so per-slot delays are
	// invisible at the root: the waited readers are those seeded into the
	// bitmap, the single root poll either stayed in its spin phase or
	// crossed into yields once for the whole set, and blame conservatively
	// charges the whole poll to every seeded slot (an exited-early reader
	// is over-blamed, never missed). A stall report names the first.
	root := &tl.levels[len(tl.levels)-1][0]
	s.await(tl.waited[0].slot, func() bool { return root.Load() != 0 })
	for _, wd := range tl.waited[1:] {
		s.also(wd.slot)
	}
	return s.end()
}
