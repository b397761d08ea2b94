// Package hashtable implements the resizable closed-addressing hash table
// of the PRCU paper (§5.1), after Triplett et al.'s relativistic hash
// table: buckets are RCU-protected linked lists that lookups traverse
// without locks, updates synchronize with per-bucket locks, and expansion
// doubles the bucket array in place while lookups keep running.
//
// The table is generic over its key and value types. Keys hash to a
// fixed 64-bit value per map (hash/maphash.Comparable under a per-map
// seed by default, any caller-supplied hash via NewWithHash, or the
// paper's modulo-table-size identity hash for uint64 keys via
// NewModulo), and a bucket is the hash masked to the table size — so an
// expansion still splits each old bucket into exactly two new ones.
// Expand first points every new bucket at the first node of the old
// chain that belongs to it (new buckets alias into old chains, which is
// why lookups always compare keys), publishes the new array, and then
// "unzips" each old chain — and it calls WaitForReaders before every
// pointer change, since each change disconnects the path some
// pre-existing traversal may still be relying on (the paper's Figure 3
// anomalies). With PRCU, each of those waits covers only readers of the
// two affected buckets: P(x) = (x = b_old or x = b_new).
//
// All traversal runs on the typed guard layer: chain links are
// guard.Cell, the current table generation is a guard.Guarded, and
// read-side loads demand the lookup's open guard.Scope — so a lookup
// that leaks a node pointer out of its critical section no longer
// type-checks against the raw atomics, and cmd/prcuvet flags the
// escapes Go's types cannot rule out.
//
// As in Triplett et al., updates are prevented during expansion; they spin
// until it completes.
package hashtable

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"prcu"
	"prcu/guard"
	"prcu/internal/pad"
	"prcu/internal/spin"
)

// hnode is a chain node; key and val are immutable while the node is
// reachable, and next is a guarded link traversed by lock-free readers.
type hnode[K comparable, V any] struct {
	key  K
	val  V
	next guard.Cell[hnode[K, V]]
}

// table is one immutable-size generation of the bucket array.
type table[K comparable, V any] struct {
	heads []guard.Cell[hnode[K, V]]
	locks []sync.Mutex
	mask  uint64
}

func newTable[K comparable, V any](buckets int) *table[K, V] {
	return &table[K, V]{
		heads: make([]guard.Cell[hnode[K, V]], buckets),
		locks: make([]sync.Mutex, buckets),
		mask:  uint64(buckets - 1),
	}
}

// enginePair is the map's engine binding, swapped wholesale behind an
// atomic pointer. Outside a live migration old is nil; during one, old
// holds the engine being drained and every updater-side wait covers
// both (readers may exist on either engine until the migrator settles
// the pair — over-covering is always safe).
type enginePair struct {
	cur prcu.RCU
	old prcu.RCU
}

// Map is the resizable hash table. Lookups go through per-goroutine
// Handles; Insert, Delete and Expand may be called from any goroutine.
// Three groups of fields, a full line apart: the read-mostly head every
// lookup and update loads, the fields updates and expansions write, and
// the ones the reclaimer writes.
type Map[K comparable, V any] struct {
	eng  atomic.Pointer[enginePair]
	pool *prcu.ReaderPool
	hash func(K) uint64
	// tbl is the current generation, RCU-published: readers reach it only
	// inside their lookup scope. maskHint mirrors the current mask so a
	// lookup can pick its PRCU domain value before entering the section;
	// a stale hint is detected inside the section and retried.
	tbl      guard.Guarded[table[K, V]]
	maskHint atomic.Uint64
	// ret, when set, recycles deleted nodes through nodePool after a
	// covering grace period; see SetReclaimer.
	ret *guard.Retirer[hnode[K, V]]

	_ [pad.CacheLineSize]byte
	// resizeMu serializes expansions; expanding blocks updates while one
	// is in flight.
	resizeMu  sync.Mutex
	expanding atomic.Bool
	size      atomic.Int64
	// waits counts WaitForReaders calls issued by expansions (exposed for
	// the benchmark harness and tests).
	waits atomic.Int64

	_        [pad.CacheLineSize]byte
	nodePool sync.Pool
	recycled atomic.Uint64
}

// SetReclaimer enables deferred node recycling. Without it, Delete
// simply unlinks and lets Go's GC reclaim the node once readers quiesce
// — correct, but every delete allocates garbage and a later insert
// allocates afresh. With a reclaimer, Delete retires the node and, after
// a grace period covering every reader that could still be traversing
// it, the node returns to an internal pool that Insert draws from.
// Recycling mutates the node's key in place, which is exactly what must
// never happen while a reader can still reach it — the grace period is
// what licenses it.
//
// The retire path is typed end-to-end: a guard.Retirer[hnode[K,V]]
// binds the recycle callback once, declares the node's byte footprint
// from unsafe.Sizeof, and never round-trips the node through a
// hand-written any assertion. (Out-of-line memory owned by K or V —
// string bodies, slices — is invisible to Sizeof and is not declared.)
//
// Call before the map is shared; do not close rec while updaters are
// active (Retire on a closed reclaimer panics). If rec shuts down with
// retirements unresolved, those nodes are simply not recycled — the GC
// takes them, nothing leaks and no reader is harmed.
func (m *Map[K, V]) SetReclaimer(rec *prcu.Reclaimer) {
	if rec == nil {
		m.ret = nil
		return
	}
	m.ret = guard.NewRetirer(rec, 0, m.recycleNode)
}

// Recycled returns how many deleted nodes completed their grace period
// and re-entered the insert pool.
func (m *Map[K, V]) Recycled() uint64 { return m.recycled.Load() }

// recycleNode runs after the retirement's grace period: no reader can
// reach n anymore, so scrubbing and pooling it is safe.
func (m *Map[K, V]) recycleNode(n *hnode[K, V]) {
	var zk K
	var zv V
	n.key = zk
	n.val = zv
	n.next.Store(nil)
	m.recycled.Add(1)
	m.nodePool.Put(n)
}

// retirePredicate covers every PRCU value a reader still able to reach a
// node hashing to hk may have annotated its section with. Readers
// annotate with a bucket index of the table generation they entered
// under, and generations only ever double, so across generations the
// node's bucket is hk & m for the nested masks m, mask ≥ m ≥ 0. Readers
// of *other* buckets can transiently traverse the node mid-expansion
// (chains alias until unzipped), but every unzip cut is preceded by a
// wait covering both affected buckets and updates are excluded while
// expansion runs, so by the time a Delete can retire the node those
// readers are done. Over-covering the handful of nested reductions is
// the cheap, safe remainder.
func retirePredicate(hk, mask uint64) prcu.Predicate {
	return prcu.Func(func(v prcu.Value) bool {
		for m := mask; ; m >>= 1 {
			if v == hk&m {
				return true
			}
			if m == 0 {
				return false
			}
		}
	})
}

func checkBuckets(initialBuckets int) {
	if initialBuckets < 1 || initialBuckets&(initialBuckets-1) != 0 {
		panic(fmt.Sprintf("hashtable: bucket count must be a power of two, got %d", initialBuckets))
	}
}

// New returns a table with the given initial bucket count (a power of
// two), synchronized by r. Keys are hashed with hash/maphash.Comparable
// under a seed drawn per map, so bucket placement is collision-resistant
// but not reproducible across runs; use NewModulo for the paper's
// deterministic uint64 table or NewWithHash to supply your own hash.
func New[K comparable, V any](r prcu.RCU, initialBuckets int) *Map[K, V] {
	seed := maphash.MakeSeed()
	return NewWithHash[K, V](r, initialBuckets, func(k K) uint64 {
		return maphash.Comparable(seed, k)
	})
}

// NewWithHash is New with a caller-supplied key hash. The hash must be
// fixed per key for the lifetime of the map; quality only affects chain
// balance, never correctness.
func NewWithHash[K comparable, V any](r prcu.RCU, initialBuckets int, hash func(K) uint64) *Map[K, V] {
	checkBuckets(initialBuckets)
	if hash == nil {
		panic("hashtable: NewWithHash with nil hash")
	}
	m := &Map[K, V]{pool: prcu.NewReaderPool(r), hash: hash}
	m.eng.Store(&enginePair{cur: r})
	t := newTable[K, V](initialBuckets)
	m.tbl.Publish(t)
	m.maskHint.Store(t.mask)
	return m
}

// NewModulo returns the paper's evaluation table: uint64 keys placed by
// the modulo-table-size identity hash, so key k lives in bucket
// k mod buckets and expansion behavior is exactly §5.1's.
func NewModulo(r prcu.RCU, initialBuckets int) *Map[uint64, uint64] {
	return NewWithHash[uint64, uint64](r, initialBuckets, func(k uint64) uint64 { return k })
}

// Engine returns the engine new readers currently register on.
func (m *Map[K, V]) Engine() prcu.RCU { return m.eng.Load().cur }

// waitForReaders runs one grace period covering pred on every engine in
// the pair — during a live migration window readers may exist on both.
func (m *Map[K, V]) waitForReaders(pred prcu.Predicate) {
	ep := m.eng.Load()
	ep.cur.WaitForReaders(pred)
	if ep.old != nil {
		ep.old.WaitForReaders(pred)
	}
}

// SwapEngine implements the live-migration front contract: new handles
// register on target, and until SettleEngine the map's updater-side
// waits cover both target and the previous engine. Returns the previous
// engine. Normally called only by a prcu.Migrator, which also drains
// the previous engine's readers before settling.
func (m *Map[K, V]) SwapEngine(target prcu.RCU) prcu.RCU {
	for {
		ep := m.eng.Load()
		if m.eng.CompareAndSwap(ep, &enginePair{cur: target, old: ep.cur}) {
			m.pool.SwapEngine(target)
			return ep.cur
		}
	}
}

// SettleEngine drops the drained engine from the pair once the migrator
// has verified it is quiescent; updater-side waits return to covering
// the current engine alone.
func (m *Map[K, V]) SettleEngine() {
	for {
		ep := m.eng.Load()
		if ep.old == nil {
			return
		}
		if m.eng.CompareAndSwap(ep, &enginePair{cur: ep.cur}) {
			return
		}
	}
}

// DrainStale releases pool-cached readers stranded on a pre-swap
// engine; the migrator calls it between registry-drain re-checks.
func (m *Map[K, V]) DrainStale() { m.pool.DrainStale() }

// Buckets returns the current bucket count.
func (m *Map[K, V]) Buckets() int { return len(m.tbl.LoadLocked().heads) }

// Size returns the number of keys (exact at rest, approximate under
// concurrent updates).
func (m *Map[K, V]) Size() int { return int(m.size.Load()) }

// LoadFactor returns Size divided by Buckets.
func (m *Map[K, V]) LoadFactor() float64 { return float64(m.Size()) / float64(m.Buckets()) }

// ExpansionWaits returns the cumulative number of WaitForReaders calls
// issued by Expand — the quantity Figure 9's latency is made of.
func (m *Map[K, V]) ExpansionWaits() int64 { return m.waits.Load() }

// Handle is one goroutine's lookup context, wrapping its typed reader.
// A Handle must not be used concurrently.
type Handle[K comparable, V any] struct {
	m *Map[K, V]
	g *guard.R
}

// NewHandle registers a pinned reader slot for lookups. Registration only
// fails when the engine was built with a reader cap; prefer Handle for
// ephemeral goroutines.
func (m *Map[K, V]) NewHandle() (*Handle[K, V], error) {
	for {
		eng := m.Engine()
		rd, err := eng.Register()
		if err != nil {
			return nil, err
		}
		// Re-check the engine indirection after Register: a live
		// migration flipping the map between the load and the Register
		// could otherwise strand this reader on a source engine whose
		// drain already read an empty registry (DESIGN.md "Handover
		// safety"). Passing the re-check means the registration was
		// visible before the swap, so the drain's poll observes it.
		if m.Engine() == eng {
			return &Handle[K, V]{m: m, g: guard.Wrap(rd)}, nil
		}
		rd.Unregister()
	}
}

// Handle borrows a pooled reader and returns a handle around it — the
// infallible choice for goroutines that come and go. Close returns the
// reader to the pool for the next borrower.
func (m *Map[K, V]) Handle() *Handle[K, V] {
	return &Handle[K, V]{m: m, g: guard.Wrap(m.pool.Get())}
}

// Close releases the handle's reader: a pinned reader's slot is freed, a
// pooled reader goes back to the pool.
func (h *Handle[K, V]) Close() {
	h.g.Unregister()
	h.g = nil
}

// Get returns the value stored under k. The read-side critical section's
// PRCU value is the key's bucket index in the table generation being
// traversed; the bucket is picked from the mask hint before entering
// and re-validated against the generation loaded inside the section, so
// an expansion that published a new table always covers the lookup
// through one of its bucket predicates. Every chain load demands the
// section's Scope, and the section is closed even if the traversal
// panics (an incomparable dynamic key type, a corrupted chain), so a
// failing lookup can never wedge future covering grace periods.
func (h *Handle[K, V]) Get(k K) (V, bool) { return h.m.get(h.g, k) }

// get looks k up through g, retrying while the bucket hint is stale.
func (m *Map[K, V]) get(g *guard.R, k K) (val V, ok bool) {
	hk := m.hash(k)
	for {
		var retry bool
		val, ok, retry = m.lookup(g, hk, k)
		if !retry {
			return val, ok
		}
	}
}

// lookup is one guarded traversal attempt: it enters on the hinted
// bucket, validates the hint against the generation read inside the
// section, and walks the chain. retry means the hint was stale and the
// attempt saw a newer generation.
func (m *Map[K, V]) lookup(g *guard.R, hk uint64, k K) (val V, ok, retry bool) {
	v := prcu.Value(hk & m.maskHint.Load())
	s := g.Enter(v)
	defer g.Exit(s)
	t := m.tbl.Load(s)
	if hk&t.mask != uint64(v) {
		// The table was swapped after the hint was read; re-enter under
		// the new generation's bucket so its split predicates cover us.
		m.maskHint.Store(t.mask)
		return val, false, true
	}
	// Chains may alias other buckets' nodes mid-expansion, so match
	// on the key, never on position.
	n := t.heads[uint64(v)].Load(s)
	for n != nil && n.key != k {
		n = n.next.Load(s)
	}
	if n != nil {
		val, ok = n.val, true
	}
	return val, ok, false
}

// Contains reports whether k is present.
func (h *Handle[K, V]) Contains(k K) bool {
	_, ok := h.Get(k)
	return ok
}

// Get is the one-shot form: it borrows a pooled reader for a single
// lookup. Hot loops should hold a Handle instead and amortize the borrow.
// The borrow is returned even if the lookup panics, so a failed lookup
// never leaks a pooled reader slot. The typed wrapper around the borrowed
// reader stays on this frame, so the borrow allocates nothing.
func (m *Map[K, V]) Get(k K) (V, bool) {
	rd := m.pool.Get()
	defer m.pool.Put(rd)
	return m.get(guard.Wrap(rd), k)
}

// Contains is the one-shot membership test; see Get.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// lockBucket acquires the bucket lock for hash hk in the current table,
// retrying across expansions; it returns with the lock held, expansion
// quiescent, and the table current.
func (m *Map[K, V]) lockBucket(hk uint64) (*table[K, V], uint64) {
	var w spin.Waiter
	for {
		if m.expanding.Load() {
			w.Wait()
			continue
		}
		t := m.tbl.LoadLocked()
		b := hk & t.mask
		t.locks[b].Lock()
		if !m.expanding.Load() && m.tbl.LoadLocked() == t {
			return t, b
		}
		t.locks[b].Unlock()
		w.Wait()
	}
}

// Insert adds k with value val, returning false if k is already present.
// Inserts push at the chain head, so lock-free readers observe them
// atomically.
func (m *Map[K, V]) Insert(k K, val V) bool {
	hk := m.hash(k)
	t, b := m.lockBucket(hk)
	defer t.locks[b].Unlock()
	head := t.heads[b].LoadLocked()
	for n := head; n != nil; n = n.next.LoadLocked() {
		if n.key == k {
			return false
		}
	}
	n, _ := m.nodePool.Get().(*hnode[K, V])
	if n == nil {
		n = &hnode[K, V]{}
	}
	n.key = k
	n.val = val
	n.next.Store(head)
	t.heads[b].Store(n)
	m.size.Add(1)
	return true
}

// Delete removes k, returning whether it was present. The node is unlinked
// while readers may still be traversing it; its next pointer is left
// intact so they continue unharmed (the RCU discipline — in C this is
// where reclamation would be deferred to a grace period; Go's GC plays
// that role by default, or the attached Reclaimer recycles the node
// after its grace period when SetReclaimer was called).
func (m *Map[K, V]) Delete(k K) bool {
	hk := m.hash(k)
	t, b := m.lockBucket(hk)
	defer t.locks[b].Unlock()
	var prev *hnode[K, V]
	n := t.heads[b].LoadLocked()
	for n != nil && n.key != k {
		prev, n = n, n.next.LoadLocked()
	}
	if n == nil {
		return false
	}
	if prev == nil {
		t.heads[b].Store(n.next.LoadLocked())
	} else {
		prev.next.Store(n.next.LoadLocked())
	}
	m.size.Add(-1)
	// The node's next pointer is left intact for readers still on it; with
	// a reclaimer attached it re-enters the insert pool once a grace
	// period covering every such reader completes.
	if ret := m.ret; ret != nil {
		ret.Retire(retirePredicate(hk, t.mask), n)
	}
	return true
}

// Expand doubles the bucket array while lookups proceed concurrently.
// Updates are blocked for its duration. Safe to call from one goroutine at
// a time per table; concurrent calls serialize.
func (m *Map[K, V]) Expand() {
	m.resizeMu.Lock()
	defer m.resizeMu.Unlock()

	old := m.tbl.LoadLocked()
	oldSize := uint64(len(old.heads))

	// Stop updates: raise the flag, then drain in-flight holders of every
	// old bucket lock.
	m.expanding.Store(true)
	defer m.expanding.Store(false)
	for i := range old.locks {
		old.locks[i].Lock()
		//lint:ignore SA2001 empty critical section intentionally drains in-flight updates
		old.locks[i].Unlock()
	}

	// Build the new array: each new bucket points at the first node of its
	// old chain that belongs to it (Figure 3a).
	nt := newTable[K, V](int(oldSize * 2))
	for b := uint64(0); b < oldSize; b++ {
		for n := old.heads[b].LoadLocked(); n != nil; n = n.next.LoadLocked() {
			d := m.hash(n.key) & nt.mask
			if nt.heads[d].LoadLocked() == nil {
				nt.heads[d].Store(n)
			}
		}
	}
	m.tbl.Publish(nt)
	m.maskHint.Store(nt.mask)

	// Unzip every old chain (Figure 3b–3d). Bucket b's waits cover readers
	// of the two buckets it splits into, values b and b+oldSize: an
	// iterable predicate with two values (the form D-PRCU drains in O(1)),
	// all of them sharing the expansion's one iterator.
	next := func(v prcu.Value) prcu.Value { return v + oldSize }
	for b := uint64(0); b < oldSize; b++ {
		m.waits.Add(m.unzip(old, nt, b, prcu.Iterable(b, b+oldSize, next)))
	}
}

// unzip separates old bucket b's chain into the two new chains, calling
// WaitForReaders before every pointer change so no traversal that might
// still rely on the old link can be stranded. It returns the number of
// waits it made.
func (m *Map[K, V]) unzip(old, nt *table[K, V], b uint64, pred prcu.Predicate) (waits int64) {
	cur := old.heads[b].LoadLocked()
	for cur != nil {
		d := m.hash(cur.key) & nt.mask
		// Advance to the end of the current run of destination d.
		next := cur.next.LoadLocked()
		for next != nil && m.hash(next.key)&nt.mask == d {
			cur = next
			next = cur.next.LoadLocked()
		}
		if next == nil {
			break // fully split
		}
		// next begins a run of the other destination; find the first
		// node after it that belongs to d again.
		q := next
		for q != nil && m.hash(q.key)&nt.mask != d {
			q = q.next.LoadLocked()
		}
		// Pre-existing readers of bucket d may be traversing the foreign
		// run to reach their nodes beyond it; let them finish before
		// cutting the link.
		waits++
		m.waitForReaders(pred)
		cur.next.Store(q)
		cur = next
	}
	return waits
}

// Compile-time check of the live-migration front contract.
var (
	_ prcu.EngineFront = (*Map[int, int])(nil)
)
