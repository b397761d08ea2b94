package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
// whole table, as described in §4.2.
//
// NewSRCU builds it as McKenney's Sleepable RCU (§7), the origin of
// D-PRCU's two-counter protocol. Each SRCU instance is an isolated
// subsystem: a wait in one never waits for readers of another, whereas
// PRCU subdivides waiting *within* one data structure by value. SRCU is
// D-PRCU with a single counter node and no predicate; in the harness it
// behaves like a plain RCU whose readers pay one atomic RMW.
type D struct {
	// D-PRCU readers carry no scanned per-slot state — the counter table
	// is the shared state — but slots still bound and account for the
	// reader population.
	base[struct{}]
	tbl atomic.Pointer[dTable]
	// old holds the previous table generation while a Resize drains it;
	// concurrent waits drain it conservatively until it clears.
	old      atomic.Pointer[dTable]
	resizeMu sync.Mutex
	// optBudget is the optimistic-waiting budget; <= 0 goes straight to
	// the gate protocol. Tunable (before use) for the ablation study.
	optBudget int
	// values is false for SRCU: every wait drains the whole table.
	values bool
	// Every Enter reads tbl. The pad makes the struct exactly two cache
	// lines, a line-aligned size class, so that no neighbouring allocation
	// shares a line with it.
	_ [40]byte
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
	d.setup(name, 1, zeroSeg[struct{}])
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

type dReader struct {
	readerGuard
	d    *D
	lane *obs.ReaderLane
	slot int
	// node and b record the counter cell and gate bit chosen at Enter, so
	// Exit decrements exactly the counter Enter incremented (Algorithm
	// 2's thread-local b). tbl pins the table generation for the
	// Exit-value consistency check. inCS guards the no-nesting contract.
	node *dNode
	tbl  *dTable
	b    uint64
	inCS bool
}

// Register implements RCU.
func (d *D) Register() (Reader, error) {
	slot, _ := d.reg.acquire()
	return &dReader{d: d, lane: d.lane(slot), slot: slot}, nil
}

// Enter implements Reader (Algorithm 2 lines 4–7; srcu_read_lock). The
// fetch-and-add is an SC atomic RMW, which supplies the fence the paper
// notes TSO gets for free from the atomic operation. The table pointer is
// re-validated after the increment so an Enter racing a Resize can never
// count itself in a generation that has already been drained and
// abandoned.
func (r *dReader) Enter(v Value) {
	r.check()
	if r.inCS {
		panic("prcu: nested read-side critical sections are not supported")
	}
	for {
		t := r.d.tbl.Load()
		n := &t.nodes[t.index(v)]
		b := n.gate.Load() & 1
		n.readers[b].Add(1)
		if r.d.tbl.Load() == t {
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
// For general predicates, a one-entry table and SRCU (whose predicate only
// feeds stall reports) it drains every node, the fallback §4.2 describes,
// hashing and enumerating nothing. If a table resize is in flight, the
// previous generation is drained in full — readers counted there may hold
// any value, so only a global drain of that generation is conservative
// enough.
//
// The "readers scanned / waited for" selectivity is counted over counter
// nodes — the unit D-PRCU's waits actually visit and block on — and blame
// and stall reports name node indices, in the generation being drained,
// for the same reason.
func (d *D) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &d.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	// The updater's prior writes are ordered before the counter loads in
	// drainNode by SC atomics (the paper's line 11 fence).
	t := d.tbl.Load()
	var ok bool
	if d.values && t.mask != 0 && p.Enumerable() {
		ok = d.drainCovered(&s, t, p)
	} else {
		ok = d.drainAll(&s, t)
	}
	if o := d.old.Load(); ok && o != nil && o != t {
		d.drainAll(&s, o)
	}
	return s.end()
}

// drainAll drains every node of t, stopping early on cancellation. Its
// nodes are drained for no one value, so a stall report names none.
func (d *D) drainAll(s *waitSession, t *dTable) bool {
	s.hasVal = false
	for j := range t.nodes {
		if !drainNode(s, &t.nodes[j], j, d.optBudget) {
			return false
		}
	}
	return true
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
	s.scanned++
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
