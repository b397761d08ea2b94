package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"prcu/internal/obs"
	"prcu/internal/pad"
)

// DefaultCounterTableSize is the C-table size used in the paper's
// evaluation ("The D-PRCU implementation uses a 1024-counter table", §6).
const DefaultCounterTableSize = 1024

// optimisticBudget is the number of back-off steps a wait spends hoping a
// node's readers drain naturally before acquiring the node lock and running
// the gate-toggle protocol (§4.2 "Optimistic waiting").
const optimisticBudget = 128

// dNode is one slot of D-PRCU's shared counter table C (Algorithm 2).
// It uses the SRCU-style two-counter waiting protocol: the gate bit selects
// which counter arriving readers increment, so a waiter can drain one phase
// while the other keeps absorbing new readers, guaranteeing the wait
// terminates even under a continuous stream of arrivals.
//
// Every field gets its own cache line: the counters are the reader fast
// path, the gate is read by every Enter and written only by slow-path
// drains, and the lock serializes concurrent drains of the same node.
type dNode struct {
	gate    pad.Uint64
	readers [2]pad.Int64
	mu      sync.Mutex
	// drains counts completed gate-protocol drains of this node; it backs
	// the batching optimization of §4.2 ("Further optimizations"): a
	// waiter that finds the lock taken piggybacks by waiting until two
	// drains complete after its arrival — the second one necessarily
	// started after the waiter arrived and therefore covers it.
	drains pad.Uint64
	_      [pad.CacheLineSize - 8]byte
}

// dTable is one generation of the counter table. Resize (§4.2 "Further
// optimizations") swaps in a larger generation; the table is therefore
// reached through an atomic pointer and readers re-validate it after
// incrementing, exactly like the resizable hash table's lookups.
type dTable struct {
	nodes []dNode
	mask  uint64
}

func newDTable(size int) *dTable {
	if size < 1 || size&(size-1) != 0 {
		panic(fmt.Sprintf("prcu: D-PRCU table size must be a power of two, got %d", size))
	}
	return &dTable{nodes: make([]dNode, size), mask: uint64(size - 1)}
}

// indexOf returns n's index in t, or -1 when n is not one of t's nodes.
// It is computed from n's address, so that building a table does not
// touch its nodes: writing an index into each would fault in all of a
// fresh 1024-node table's pages at construction.
func (t *dTable) indexOf(n *dNode) int {
	i := (uintptr(unsafe.Pointer(n)) - uintptr(unsafe.Pointer(&t.nodes[0]))) / unsafe.Sizeof(dNode{})
	if i < uintptr(len(t.nodes)) {
		return int(i)
	}
	return -1
}

// index is h_rcu(v) masked; a one-entry table (SRCU) skips the hash.
func (t *dTable) index(v Value) uint64 {
	if t.mask == 0 {
		return 0
	}
	return hashValue(v) & t.mask
}

// D is the counter kernel, parameterised by the table size and whether
// waits use the reader's value (DESIGN.md §5). As NewD builds it, it is
// D-PRCU (Algorithm 2): readers hash their value into the counter table;
// wait-for-readers drains only the nodes covered by an enumerable
// predicate, making its cost O(|P⁻¹|) — independent of the number of
// threads. General (non-enumerable) predicates fall back to draining the
// whole table, as described in §4.2 — until the first such wait has
// completed one; from then on they drain only the nodes that registered
// readers publish in their slots (DESIGN.md §5, "Wide waits visit the
// readers").
//
// NewSRCU builds it as McKenney's Sleepable RCU (§7), the origin of
// D-PRCU's two-counter protocol. Each SRCU instance is an isolated
// subsystem: a wait in one never waits for readers of another, whereas
// PRCU subdivides waiting *within* one data structure by value. SRCU is
// D-PRCU with a single counter node and no predicate; in the harness it
// behaves like a plain RCU whose readers pay one atomic RMW.
type D struct {
	// A reader's slot is the line it publishes its latest section's node
	// on, once the engine has seen a wide wait; the counter table is the
	// shared state every wait drains.
	base[dSlot]
	tbl atomic.Pointer[dTable]
	// mode is the wide-wait switch (dOff, dPublishing, dReady). Every Enter
	// loads it, from the line it loads tbl from; it changes at most twice
	// in the engine's life.
	mode atomic.Uint32
	// old holds the previous table generation while a Resize drains it;
	// concurrent waits drain it conservatively until it clears.
	old      atomic.Pointer[dTable]
	resizeMu sync.Mutex
	// optBudget is the optimistic-waiting budget; <= 0 goes straight to
	// the gate protocol. Tunable (before use) for the ablation study.
	optBudget int
	// values is false for SRCU: every wait drains the whole table.
	values bool
	// Every Enter reads tbl and mode. The pad makes the struct exactly two
	// cache lines, a line-aligned size class, so that no neighbouring
	// allocation shares a line with them.
	_ [32]byte
}

// The states of D.mode. A wide wait — a general predicate on a table of
// more than one node — drains the whole table until one has completed a
// full walk that began after readers started publishing; from then on it
// drains only the nodes published in the readers' slots.
const (
	dOff        = iota // readers publish nothing; wide waits walk the table
	dPublishing        // readers publish; wide waits still walk the table
	dReady             // readers publish; wide waits visit the readers
)

// dSlot is a D reader's registry slot: the node its latest section was
// counted in, published while mode is not dOff, on a line of its own —
// the reader writes it and wide waits read it.
type dSlot struct {
	node atomic.Pointer[dNode]
	_    [pad.CacheLineSize - 8]byte
}

// NewD returns a D-PRCU engine. tableSize is the counter-table size |C|
// and must be a power of two; 0 selects the paper's default of 1024.
func NewD(tableSize int) *D {
	if tableSize == 0 {
		tableSize = DefaultCounterTableSize
	}
	return newCounter("D-PRCU", tableSize, true)
}

// NewSRCU returns an SRCU instance ("subsystem"): the counter kernel with
// one entry, values off.
func NewSRCU() *D { return newCounter("SRCU", 1, false) }

func newCounter(name string, tableSize int, values bool) *D {
	d := &D{optBudget: optimisticBudget, values: values}
	d.setup(name, 1, zeroSeg[dSlot])
	d.tbl.Store(newDTable(tableSize))
	return d
}

// SetOptimisticBudget tunes the optimistic-waiting spin budget (§4.2);
// zero or negative disables optimistic waiting entirely, sending every
// drain straight to the gate protocol. Call before the engine is in use —
// the field is read without synchronization on the wait path.
func (d *D) SetOptimisticBudget(budget int) { d.optBudget = budget }

// TableSize returns |C|, the current counter table size.
func (d *D) TableSize() int { return len(d.tbl.Load().nodes) }

// hashValue is h_rcu: D → [|C|]. The domain is opaque and possibly huge
// (§4.2), so a strong mixer (splitmix64 finalizer) spreads adjacent values
// across the table, keeping counter contention low for disjoint readers.
func hashValue(v Value) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// dReader is 64 bytes, a line-aligned size class, so that no two readers'
// per-section words share a line: the bools and the gate bit share a word.
type dReader struct {
	readerGuard
	// node and b record the counter cell and gate bit chosen at Enter, so
	// Exit decrements exactly the counter Enter incremented (Algorithm
	// 2's thread-local b). tbl pins the table generation for the
	// Exit-value consistency check. inCS guards the no-nesting contract.
	inCS bool
	b    uint32
	d    *D
	lane *obs.ReaderLane
	slot int
	node *dNode
	tbl  *dTable
	// pub is the reader's slot and last the node in it: only its owner
	// writes a slot, and a recycled slot keeps the node its previous owner
	// left, so last is read from it at Register.
	pub  *dSlot
	last *dNode
}

// Register implements RCU.
func (d *D) Register() (Reader, error) {
	slot, pub := d.reg.acquire()
	return &dReader{d: d, lane: d.lane(slot), slot: slot, pub: pub, last: pub.node.Load()}, nil
}

// Enter implements Reader (Algorithm 2 lines 4–7; srcu_read_lock). The
// fetch-and-add is an SC atomic RMW, which supplies the fence the paper
// notes TSO gets for free from the atomic operation. The table pointer is
// re-validated after the increment so an Enter racing a Resize can never
// count itself in a generation that has already been drained and
// abandoned. Once a wide wait has switched publishing on, the node is
// published in the reader's slot after the increment, unless the slot
// holds it already; Exit publishes nothing.
func (r *dReader) Enter(v Value) {
	r.check()
	if r.inCS {
		panic("prcu: nested read-side critical sections are not supported")
	}
	for {
		t := r.d.tbl.Load()
		n := &t.nodes[t.index(v)]
		b := uint32(n.gate.Load()) & 1
		n.readers[b].Add(1)
		if r.d.tbl.Load() == t {
			if r.d.mode.Load() != dOff && n != r.last {
				r.pub.node.Store(n)
				r.last = n
			}
			r.node, r.tbl, r.b, r.inCS = n, t, b, true
			if r.lane != nil {
				r.lane.OnEnter()
			}
			return
		}
		n.readers[b].Add(-1)
	}
}

// Exit implements Reader (Algorithm 2 lines 8–9; srcu_read_unlock).
func (r *dReader) Exit(v Value) {
	r.check()
	if !r.inCS {
		panic("prcu: Exit without matching Enter")
	}
	if n := &r.tbl.nodes[r.tbl.index(v)]; n != r.node {
		panic("prcu: Exit value does not match Enter value")
	}
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.node.readers[r.b].Add(-1)
	r.node, r.tbl, r.inCS = nil, nil, false
}

// Do implements Reader.
func (r *dReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *dReader) Unregister() {
	r.closing()
	if r.inCS {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.d.reg.release(r.slot)
	r.d = nil
}

// WaitForReaders implements RCU.
func (d *D) WaitForReaders(p Predicate) { d.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers (Algorithm 2 lines
// 10–13; synchronize_srcu), bounded by ctx when it is non-nil. For
// enumerable predicates it drains only the covered nodes, deduplicating
// indices so hash collisions within P⁻¹ never drain a node twice (§4.2
// footnote 2), and stops enumerating once every node has been drained.
// A one-entry table and SRCU (whose predicate only feeds stall reports)
// drain their every node, hashing and enumerating nothing. If a table
// resize is in flight, these waits drain the previous generation in full —
// readers counted there may hold any value, so only a global drain of that
// generation is conservative enough.
//
// A wide wait — a general predicate on a larger table — drains every node
// too, the fallback §4.2 describes, until one such wait has completed that
// walk after switching readers' publishing on; from then on it drains only
// the nodes published in the active readers' slots, whatever their
// generation (DESIGN.md §5 gives the safety argument).
//
// The "readers scanned / waited for" selectivity is counted over counter
// nodes — the unit D-PRCU's waits actually visit and block on — except
// that a wide wait visiting the readers counts the slots it visits. Blame
// and stall reports name node indices, in the generation being drained.
func (d *D) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &d.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	// The updater's prior writes are ordered before the counter and slot
	// loads in the drains by SC atomics (the paper's line 11 fence).
	t := d.tbl.Load()
	switch {
	case !d.values || t.mask == 0:
		d.drainWhole(&s, t)
	case p.Enumerable():
		if d.drainCovered(&s, t, p) {
			d.drainOld(&s, t)
		}
	case d.mode.Load() == dReady:
		d.drainPublished(&s)
	default:
		// The walk must start after the switch: a section that read dOff
		// did so before it, and so is counted in a node the walk drains.
		d.mode.CompareAndSwap(dOff, dPublishing)
		if d.drainWhole(&s, d.tbl.Load()) {
			d.mode.CompareAndSwap(dPublishing, dReady)
		}
	}
	return s.end()
}

// drainWhole drains every node of t and then, while a resize is in
// flight, of the previous generation; it returns false if cancelled.
func (d *D) drainWhole(s *waitSession, t *dTable) bool {
	return d.drainAll(s, t) && d.drainOld(s, t)
}

// drainOld drains the previous generation in full while a resize that
// replaced it (t being the generation the wait drained) is in flight.
func (d *D) drainOld(s *waitSession, t *dTable) bool {
	if o := d.old.Load(); o != nil && o != t {
		return d.drainAll(s, o)
	}
	return true
}

// drainAll drains every node of t, stopping early on cancellation. Its
// nodes are drained for no one value, so a stall report names none.
func (d *D) drainAll(s *waitSession, t *dTable) bool {
	s.hasVal = false
	for j := range t.nodes {
		s.scanned++
		if !drainNode(s, &t.nodes[j], j, d.optBudget) {
			return false
		}
	}
	return true
}

// drainPublished drains the node published in each active reader's slot,
// stopping early on cancellation. A node a quiescent reader left behind
// costs the drain's first look; one from an older generation is still
// the node that reader's section was counted in. Each slot visited counts
// as scanned.
func (d *D) drainPublished(s *waitSession) {
	s.hasVal = false
	d.reg.forEachActive(func(sl *dSlot, _ int) bool {
		s.scanned++
		n := sl.node.Load()
		return n == nil || drainNode(s, n, d.nodeIndex(n), d.optBudget)
	})
}

// nodeIndex names a published node for blame and stall reports: its index
// in the current generation, or in the previous one while a resize drains
// it; -1 for a node of a generation already retired, which holds no
// section — the resize that retired it waited for every one.
func (d *D) nodeIndex(n *dNode) int {
	if i := d.tbl.Load().indexOf(n); i >= 0 {
		return i
	}
	if o := d.old.Load(); o != nil {
		return o.indexOf(n)
	}
	return -1
}

// drainCovered drains the nodes of t that p's values hash to, each once,
// stopping early on cancellation or once every node of t is drained. The
// session keeps the value each drain is for, which a stall report names
// beside the node.
func (d *D) drainCovered(s *waitSession, t *dTable, p Predicate) bool {
	s.hasVal = true
	// Dedup covered indices. Predicates in practice cover very few values
	// (a bucket pair, a small key interval), so a small linear buffer
	// avoids allocation; large predicates spill into a bitmap.
	var small [16]uint64
	seen := small[:0]
	var bitmap []uint64
	ok, drained := true, 0
	p.ForEach(func(v Value) bool {
		idx := t.index(v)
		if bitmap == nil {
			for _, s := range seen {
				if s == idx {
					return true
				}
			}
			if len(seen) < cap(seen) {
				seen = append(seen, idx)
			} else {
				// Spill: promote to bitmap.
				bitmap = make([]uint64, (len(t.nodes)+63)/64)
				for _, s := range seen {
					bitmap[s/64] |= 1 << (s % 64)
				}
			}
		} else if bitmap[idx/64]&(1<<(idx%64)) != 0 {
			return true
		}
		if bitmap != nil {
			bitmap[idx/64] |= 1 << (idx % 64)
		}
		s.val = v
		s.scanned++
		ok = drainNode(s, &t.nodes[idx], int(idx), d.optBudget)
		drained++
		return ok && drained < len(t.nodes)
	})
	return ok
}

// The stages of one node drain, in order.
const (
	drainHoping  = iota // optimistic: hoping both counters are seen at zero
	drainLocking        // acquiring the node lock, or piggybacking on its holders
	drainOld            // lock held: draining the phase arrivals no longer use
	drainNew            // lock held, gate toggled: draining the phase they did use
)

// drainNode waits until node n has been observed with zero readers in each
// counter (Lemma 1), first optimistically and then via the gate protocol
// (Algorithm 2 lines 14–20), piggybacking on a concurrent drain when the
// node lock is contended. It returns false when the wait was cancelled.
// SRCU's wait is this function applied to its one node; as with D-PRCU,
// aborting mid-gate releases the lock without advancing the drains
// counter, leaving the protocol restartable.
//
// The protocol is the node's blocking test: a little state machine that
// advances as far as it can each time the session polls it and reports
// whether it is still blocked.
//
// Optimistic waiting (§4.2): hope readers drain naturally, avoiding the
// lock and the gate toggle. Lemma 1 needs each counter observed at zero at
// some point during the wait — not simultaneously — so the two
// observations are tracked independently. budget bounds the back-off steps
// spent hoping; <= 0 goes straight to the lock.
//
// Batching (§4.2, implemented here although the paper defers it): if
// another drain holds the lock, piggyback instead of queueing — wait until
// the completed-drain counter advances by two past our arrival. Drain s0+1
// may already have been mid-protocol when we arrived, but drain s0+2
// started after s0+1 finished, i.e. after we arrived, so its two-phase
// sweep covers every reader we are obliged to wait for.
//
// Full protocol: drain the inactive phase, toggle the gate so new arrivals
// use the drained phase, then drain the previously active phase.
// Termination needs only that readers keep taking steps. On cancellation
// the lock is released without advancing drains — the protocol is
// restartable, and a mid-protocol gate toggle only means the next drain
// starts from the other phase.
func drainNode(s *waitSession, n *dNode, idx, budget int) bool {
	if budget > 0 && n.readers[0].Load() == 0 && n.readers[1].Load() == 0 {
		s.drains[obs.DrainOptimistic]++ // clean: no readers present on first look
		return true
	}
	return drainBusyNode(s, n, idx, budget)
}

// drainBusyNode is drainNode past the first look: the node's protocol,
// polled by the session. The lock and gate stages each restart the back-off
// ladder (rearm): what they poll changes on a different timescale from the
// optimistic hope, whose exhausted budget has backed off to full yield
// bursts by then.
func drainBusyNode(s *waitSession, n *dNode, idx, budget int) bool {
	stage, outcome := drainHoping, obs.DrainOptimistic
	var seen0, seen1 bool
	var s0, g uint64
	if budget <= 0 {
		stage, s0 = drainLocking, n.drains.Load()
	}
	ok := s.await(idx, func() bool {
		switch stage {
		case drainHoping:
			seen0 = seen0 || n.readers[0].Load() == 0
			seen1 = seen1 || n.readers[1].Load() == 0
			if seen0 && seen1 {
				return false
			}
			if budget > 0 {
				budget--
				return true
			}
			stage, s0 = drainLocking, n.drains.Load()
			s.rearm()
			fallthrough
		case drainLocking:
			if !n.mu.TryLock() {
				if n.drains.Load() < s0+2 {
					return true
				}
				outcome = obs.DrainPiggyback
				return false
			}
			stage, outcome, g = drainOld, obs.DrainGate, n.gate.Load()&1
			s.rearm()
			fallthrough
		case drainOld:
			if n.readers[1-g].Load() != 0 {
				return true
			}
			n.gate.Store(1 - g)
			stage = drainNew
			fallthrough
		default:
			if n.readers[g].Load() != 0 {
				return true
			}
			n.drains.Add(1)
			n.mu.Unlock()
			return false
		}
	})
	if !ok && stage >= drainOld {
		n.mu.Unlock()
	}
	s.drains[outcome]++
	return ok
}

// Resize installs a counter table of newSize (a power of two) — the table
// expansion §4.2 lists as future work, used to relieve hash-collision
// contention as reader populations grow. As the paper prescribes, the old
// generation is drained globally: new readers immediately use the new
// table (re-validating across the swap), and concurrent waits keep
// draining the old generation until it empties.
func (d *D) Resize(newSize int) {
	nt := newDTable(newSize)
	d.resizeMu.Lock()
	defer d.resizeMu.Unlock()
	ot := d.tbl.Load()
	if len(ot.nodes) == newSize {
		return
	}
	d.old.Store(ot)
	d.tbl.Store(nt)
	s := waitSession{e: &d.hooks}
	d.drainAll(&s, ot)
	d.old.Store(nil)
}
