// Package citrus implements the CITRUS concurrent binary search tree of
// Arbel and Attiya (PODC 2014), the first showcase application of the PRCU
// paper (§5.2).
//
// CITRUS is an internal (keys in every node) unbalanced search tree with a
// wait-free Contains and fine-grained-locked Insert/Delete. RCU protects
// every traversal: Contains entirely, and the optimistic search prefix of
// Insert and Delete. The one structurally hard case — deleting a node k
// with two children — replaces k with a *copy* of its successor k′ and may
// unlink the original k′ only after a wait-for-readers, so that every
// pre-existing traversal still finds k′ somewhere.
//
// That wait is where PRCU pays off: the deletion only affects searches for
// keys in (k, k′] (CITRUS's correctness proof shows this formally), so with
// a PRCU engine the tree waits just for those readers, expressed through a
// Domain mapping keys to PRCU values and (k, k′] to a predicate.
package citrus

import (
	"math"
	"sync"
	"sync/atomic"

	"prcu"
)

// sentinelKey is the reserved key of the root sentinel; user keys must be
// smaller, so every real node lives in the sentinel's left subtree and the
// sentinel itself can never be deleted.
const sentinelKey = math.MaxUint64

// node is a tree node. key is immutable; the child pointers are guarded
// cells — readers traverse them only through an open *prcu.Scope, updaters
// through the LoadLocked/Store side under the fine-grained locks; the tags
// version nil-child slots so an optimistic traversal that observed nil can
// detect an intervening insert+delete when it validates; marked flags a
// node that has been spliced out or replaced, and is guarded by mu.
type node struct {
	key    uint64
	value  atomic.Uint64
	child  [2]prcu.Cell[node]
	tag    [2]atomic.Uint64
	mu     sync.Mutex
	marked bool
}

// Domain tells the tree how to present searches to PRCU: MapKey converts a
// search key into the value passed to Enter/Exit, and WaitPredicate builds
// the predicate covering every search on a key in (low, high] — the
// sections a two-child deletion must wait for. A Domain must be consistent:
// for every key x in (low, high], WaitPredicate(low, high) must hold for
// MapKey(x). Over-covering is always safe; under-covering is not.
type Domain struct {
	MapKey        func(key uint64) prcu.Value
	WaitPredicate func(low, high uint64) prcu.Predicate
}

func identity(k uint64) prcu.Value { return k }

// WildcardDomain waits for all readers on every deletion — plain RCU
// semantics. Use it with the baseline engines, whose waits ignore
// predicates anyway.
func WildcardDomain() Domain {
	return Domain{
		MapKey:        identity,
		WaitPredicate: func(_, _ uint64) prcu.Predicate { return prcu.All() },
	}
}

// FuncDomain passes search keys through unchanged and expresses (low,
// high] as a general function predicate — the natural fit for EER-PRCU,
// whose waits evaluate the predicate once per reader (§5.2's
// P(x) = x > k ∧ x ≤ k′).
func FuncDomain() Domain {
	return Domain{
		MapKey: identity,
		WaitPredicate: func(low, high uint64) prcu.Predicate {
			return prcu.Func(func(x prcu.Value) bool { return x > low && x <= high })
		},
	}
}

// CompressedDomain divides the key space into intervals of size s, mapping
// every key in an interval to the same value, so deletion predicates become
// short iterable intervals — the compression §5.2 prescribes for D-PRCU
// (and DEER-PRCU), with s typically the counter-table size.
func CompressedDomain(s uint64) Domain {
	if s == 0 {
		panic("citrus: compression factor must be positive")
	}
	return Domain{
		MapKey: func(k uint64) prcu.Value { return k / s },
		WaitPredicate: func(low, high uint64) prcu.Predicate {
			// Every key in (low, high] compresses into
			// [(low+1)/s, high/s]; covering the whole range is safe even
			// when low and low+1 share a bucket.
			return prcu.Interval((low+1)/s, high/s)
		},
	}
}

// DefaultDomain picks a sensible Domain for an engine constructed by the
// prcu package: exact function predicates for EER, compression by the
// paper's S = |C| = 1024 for D and DEER, and the wildcard for the plain
// RCU baselines.
func DefaultDomain(flavor prcu.Flavor) Domain {
	switch flavor {
	case prcu.FlavorEER:
		return FuncDomain()
	case prcu.FlavorD, prcu.FlavorDEER:
		return CompressedDomain(1024)
	default:
		return WildcardDomain()
	}
}

// enginePair is the tree's engine binding, swapped wholesale behind an
// atomic pointer. Outside a live migration old is nil; during one, old
// holds the engine being drained and the synchronous two-child-delete
// wait covers both (readers may exist on either engine until the
// migrator settles the pair — over-covering is always safe).
type enginePair struct {
	cur prcu.RCU
	old prcu.RCU
}

// Tree is a CITRUS tree. Construct with New; obtain a Handle per goroutine.
type Tree struct {
	eng    atomic.Pointer[enginePair]
	pool   *prcu.ReaderPool
	domain Domain
	root   *node
	size   atomic.Int64

	// rec, when set, moves two-child deletions' grace-period waits off
	// the deleting goroutine; see SetReclaimer.
	rec      *prcu.Reclaimer
	deferred atomic.Uint64
}

// nodeApproxBytes is the backlog byte declaration for one deferred
// unlink: the successor node itself plus its share of bookkeeping. An
// estimate is all the reclaimer needs — the watermark bounds memory in
// these units.
const nodeApproxBytes = 96

// SetReclaimer switches two-child deletions to asynchronous
// reclamation: instead of blocking the deleting goroutine on
// WaitForReaders, Delete publishes the successor's replacement and
// hands the post-grace-period work — marking and unlinking the original
// successor, then releasing the held locks — to rec as an error-aware
// callback. The deleter returns immediately; the affected nodes stay
// locked until the covering grace period completes (the same exclusion
// the synchronous wait provides, moved to the reclaimer's worker), and
// the reclaimer batches many deletions' predicates into few waits.
//
// If rec is shut down with the callback unresolved (bounded CloseCtx on
// a wedged engine), the callback receives the abandonment error: it
// releases the locks WITHOUT unlinking — the tree stays exactly in its
// published intermediate state, which is safe for every reader — but
// the original successor node leaks and updates into its key range may
// retry indefinitely. That trade is intended for process shutdown.
//
// Call before the tree is shared; do not close rec while updaters are
// active (Defer on a closed reclaimer panics). The synchronous path is
// the default when no reclaimer is set.
func (t *Tree) SetReclaimer(rec *prcu.Reclaimer) { t.rec = rec }

// DeferredUnlinks returns how many two-child deletions handed their
// unlink to the reclaimer instead of waiting synchronously.
func (t *Tree) DeferredUnlinks() uint64 { return t.deferred.Load() }

// New returns an empty tree synchronized by r, presenting searches to r
// through domain.
func New(r prcu.RCU, domain Domain) *Tree {
	if domain.MapKey == nil || domain.WaitPredicate == nil {
		panic("citrus: Domain with nil functions")
	}
	t := &Tree{
		pool:   prcu.NewReaderPool(r),
		domain: domain,
		root:   &node{key: sentinelKey},
	}
	t.eng.Store(&enginePair{cur: r})
	return t
}

// Engine returns the engine new readers currently register on.
func (t *Tree) Engine() prcu.RCU { return t.eng.Load().cur }

// waitForReaders runs one grace period covering pred on every engine in
// the pair — during a live migration window readers may exist on both.
func (t *Tree) waitForReaders(pred prcu.Predicate) {
	ep := t.eng.Load()
	ep.cur.WaitForReaders(pred)
	if ep.old != nil {
		ep.old.WaitForReaders(pred)
	}
}

// SwapEngine implements the live-migration front contract: new handles
// register on target, and until SettleEngine the tree's synchronous
// deletion waits cover both target and the previous engine. Returns the
// previous engine. Normally called only by a prcu.Migrator, which also
// drains the previous engine's readers before settling.
func (t *Tree) SwapEngine(target prcu.RCU) prcu.RCU {
	for {
		ep := t.eng.Load()
		if t.eng.CompareAndSwap(ep, &enginePair{cur: target, old: ep.cur}) {
			t.pool.SwapEngine(target)
			return ep.cur
		}
	}
}

// SettleEngine drops the drained engine from the pair once the migrator
// has verified it is quiescent.
func (t *Tree) SettleEngine() {
	for {
		ep := t.eng.Load()
		if ep.old == nil {
			return
		}
		if t.eng.CompareAndSwap(ep, &enginePair{cur: ep.cur}) {
			return
		}
	}
}

// DrainStale releases pool-cached readers stranded on a pre-swap
// engine; the migrator calls it between registry-drain re-checks.
func (t *Tree) DrainStale() { t.pool.DrainStale() }

// Handle is one goroutine's access to the tree, wrapping its reader slot
// in a typed guard: every traversal happens inside a *prcu.Scope obtained
// from the guard, and the child cells refuse loads without one. A Handle
// must not be used concurrently.
type Handle struct {
	t *Tree
	g *prcu.GuardedReader
}

// NewHandle registers a pinned reader slot and returns a handle. Call
// Close when the goroutine is done with the tree. Registration only fails
// when the engine was built with a reader cap; prefer Handle for ephemeral
// goroutines.
func (t *Tree) NewHandle() (*Handle, error) {
	for {
		eng := t.Engine()
		rd, err := eng.Register()
		if err != nil {
			return nil, err
		}
		// Re-check the engine indirection after Register: a live
		// migration flipping the tree between the load and the Register
		// could otherwise strand this reader on a source engine whose
		// drain already read an empty registry (DESIGN.md "Handover
		// safety"). Passing the re-check means the registration was
		// visible before the swap, so the drain's poll observes it.
		if t.Engine() == eng {
			return &Handle{t: t, g: prcu.WrapReader(rd)}, nil
		}
		rd.Unregister()
	}
}

// Handle borrows a pooled reader and returns a handle around it — the
// infallible choice for goroutines that come and go. Close returns the
// reader to the pool for the next borrower.
func (t *Tree) Handle() *Handle {
	return &Handle{t: t, g: prcu.WrapReader(t.pool.Get())}
}

// Close releases the handle's reader: a pinned reader's slot is freed, a
// pooled reader goes back to the pool.
func (h *Handle) Close() {
	h.g.Unregister()
	h.g = nil
}

// Size returns the number of keys in the tree. It is exact when the tree
// is quiescent and approximate under concurrent updates.
func (t *Tree) Size() int { return int(t.size.Load()) }

func checkKey(k uint64) {
	if k == sentinelKey {
		panic("citrus: key MaxUint64 is reserved")
	}
}

func dirFor(k uint64, n *node) int {
	if k > n.key {
		return 1
	}
	return 0
}

// traverse walks from the root toward k, returning the last edge followed:
// prev, the direction taken from prev, the tag of that edge observed
// *before* reading the child, and curr (nil, or the node holding k).
// The scope s witnesses the read-side critical section the walk requires.
func (t *Tree) traverse(s *prcu.Scope, k uint64) (prev *node, dir int, tag uint64, curr *node) {
	prev, dir = t.root, 0
	tag = prev.tag[0].Load()
	curr = prev.child[0].Load(s)
	for curr != nil && curr.key != k {
		prev = curr
		dir = dirFor(k, curr)
		tag = prev.tag[dir].Load()
		curr = prev.child[dir].Load(s)
	}
	return prev, dir, tag, curr
}

// Contains reports whether k is in the tree. It is wait-free: one RCU
// traversal, no locks, no retries.
func (h *Handle) Contains(k uint64) bool {
	_, ok := h.Get(k)
	return ok
}

// lookup walks to the node holding k, reading its value in place. The
// scope s witnesses the read-side critical section on MapKey(k).
func (t *Tree) lookup(s *prcu.Scope, k uint64) (uint64, bool) {
	curr := t.root.child[0].Load(s)
	for curr != nil && curr.key != k {
		curr = curr.child[dirFor(k, curr)].Load(s)
	}
	if curr == nil {
		return 0, false
	}
	return curr.value.Load(), true
}

// Get returns the value stored under k. The traversal runs under
// GuardedReader.Read, so a panicking lookup re-raises with the critical
// section closed instead of wedging every future covering grace period.
func (h *Handle) Get(k uint64) (val uint64, ok bool) {
	checkKey(k)
	h.g.Read(h.t.domain.MapKey(k), func(s *prcu.Scope) {
		val, ok = h.t.lookup(s, k)
	})
	return val, ok
}

// Get is the one-shot form: it borrows a pooled reader for a single
// lookup. Hot loops should hold a Handle instead and amortize the borrow.
// The section is opened with Enter/Exit, not Read: a typed reader whose
// scope is only handed to lookup stays on this frame, so the borrow
// allocates nothing, and the deferred calls close the section and return
// the reader even if the lookup panics.
func (t *Tree) Get(k uint64) (uint64, bool) {
	checkKey(k)
	rd := t.pool.Get()
	defer t.pool.Put(rd)
	g := prcu.WrapReader(rd)
	s := g.Enter(t.domain.MapKey(k))
	defer g.Exit(s)
	return t.lookup(s, k)
}

// Contains is the one-shot membership test; see Get.
func (t *Tree) Contains(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

// Insert adds k with value val. It returns false if k is already present
// (the value is left unchanged, as in the paper's set semantics).
func (h *Handle) Insert(k, val uint64) bool {
	checkKey(k)
	t := h.t
	dv := t.domain.MapKey(k)
	for {
		// Validated-optimistic pattern: the traversal runs inside a scope,
		// and the nodes it found deliberately outlive it — GuardEscape is
		// the audited hatch. Safe because the pointers are only acted on
		// after lock + tag/marked revalidation below.
		s := h.g.Enter(dv)
		p, dir, tag, c := t.traverse(s, k)
		prev := prcu.GuardEscape(s, p)
		curr := prcu.GuardEscape(s, c)
		h.g.Exit(s)
		if curr != nil {
			return false
		}
		prev.mu.Lock()
		if !prev.marked && prev.child[dir].LoadLocked() == nil && prev.tag[dir].Load() == tag {
			n := &node{key: k}
			n.value.Store(val)
			prev.child[dir].Store(n)
			prev.mu.Unlock()
			t.size.Add(1)
			return true
		}
		prev.mu.Unlock()
	}
}

// Delete removes k, returning whether it was present.
//
// A node with at most one child is spliced out under the locks of itself
// and its parent. A node with two children is replaced by a copy of its
// successor; the original successor may be unlinked only after
// WaitForReaders covering searches on (k, successor] — otherwise a
// pre-existing traversal headed for the successor could miss it in both
// places (§5.2 and Figure 4).
func (h *Handle) Delete(k uint64) bool {
	checkKey(k)
	t := h.t
	dv := t.domain.MapKey(k)
	for {
		// Same escape-then-revalidate pattern as Insert.
		s := h.g.Enter(dv)
		p, dir, _, c := t.traverse(s, k)
		prev := prcu.GuardEscape(s, p)
		curr := prcu.GuardEscape(s, c)
		h.g.Exit(s)
		if curr == nil {
			return false
		}
		prev.mu.Lock()
		curr.mu.Lock()
		if prev.marked || curr.marked || prev.child[dir].LoadLocked() != curr {
			curr.mu.Unlock()
			prev.mu.Unlock()
			continue
		}
		left, right := curr.child[0].LoadLocked(), curr.child[1].LoadLocked()
		if left == nil || right == nil {
			// At most one child: splice curr out.
			repl := left
			if repl == nil {
				repl = right
			}
			curr.marked = true
			prev.child[dir].Store(repl)
			if repl == nil {
				prev.tag[dir].Add(1)
			}
			curr.mu.Unlock()
			prev.mu.Unlock()
			t.size.Add(-1)
			return true
		}
		if t.deleteInternal(prev, dir, curr, right) {
			t.size.Add(-1)
			return true
		}
		// Validation deeper down failed; locks already released.
	}
}

// deleteInternal handles the two-children case. Caller holds prev and curr
// locks and has validated them; deleteInternal releases all locks before
// returning. It returns false if the successor validation failed and the
// whole operation must retry.
func (t *Tree) deleteInternal(prev *node, dir int, curr, right *node) bool {
	// Find the successor: the leftmost node of curr's right subtree. Read
	// each nil-candidate edge's tag before the child pointer so the
	// validation below can detect churn. The walk runs on the updater-side
	// (LoadLocked) cells: it is optimistic — the nodes are not yet locked —
	// but every observation is revalidated under locks before acting, and
	// Go's GC rules out use-after-free for the pointers themselves.
	prevSucc, succ := curr, right
	var succTag uint64
	for {
		tag := succ.tag[0].Load()
		next := succ.child[0].LoadLocked()
		if next == nil {
			succTag = tag
			break
		}
		prevSucc, succ = succ, next
	}
	if prevSucc != curr {
		prevSucc.mu.Lock()
	}
	succ.mu.Lock()

	dirPS := 0
	if prevSucc == curr {
		dirPS = 1
	}
	ok := !prevSucc.marked && prevSucc.child[dirPS].LoadLocked() == succ &&
		!succ.marked && succ.child[0].LoadLocked() == nil && succ.tag[0].Load() == succTag
	if !ok {
		succ.mu.Unlock()
		if prevSucc != curr {
			prevSucc.mu.Unlock()
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
		return false
	}

	// Replace curr with a copy of the successor. New operations find the
	// successor's key at its new location immediately; the original stays
	// reachable for pre-existing traversals until the grace period ends.
	curr.marked = true
	n := &node{key: succ.key}
	n.value.Store(succ.value.Load())
	n.child[0].Store(curr.child[0].LoadLocked())
	n.child[1].Store(curr.child[1].LoadLocked())
	// Lock the copy before publishing so no concurrent update can touch it
	// while we are still rewiring its right edge below.
	n.mu.Lock()
	prev.child[dir].Store(n)

	// finish is everything that must wait for the grace period: mark the
	// original successor so pre-existing inserts cannot attach children
	// to it, unlink it, and release every held lock. On an abandoned
	// grace period (bounded shutdown) it releases the locks only — the
	// published intermediate state with both copies reachable is safe for
	// readers, whereas unlinking early is not. succ is still marked so a
	// validation can never splice children onto the leaked node.
	finish := func(err error) {
		succ.marked = true
		if err == nil {
			succRight := succ.child[1].LoadLocked()
			if prevSucc == curr {
				n.child[1].Store(succRight)
				if succRight == nil {
					n.tag[1].Add(1)
				}
			} else {
				prevSucc.child[0].Store(succRight)
				if succRight == nil {
					prevSucc.tag[0].Add(1)
				}
			}
		}
		n.mu.Unlock()
		succ.mu.Unlock()
		if prevSucc != curr {
			prevSucc.mu.Unlock()
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
	}

	// The heart of §5.2: wait only for searches on keys in (k, k′] —
	// synchronously here, or batched on the reclaimer's worker, which
	// coalesces many deletions' predicates into few grace periods. The
	// locks travel with the callback either way (releasing a Mutex from
	// another goroutine is legal in Go), so the exclusion window is
	// identical to the synchronous wait's.
	pred := t.domain.WaitPredicate(curr.key, succ.key)
	if rec := t.rec; rec != nil {
		t.deferred.Add(1)
		rec.Defer(pred, nodeApproxBytes, finish)
		return true
	}
	t.waitForReaders(pred)
	finish(nil)
	return true
}

// Compile-time check of the live-migration front contract.
var _ prcu.EngineFront = (*Tree)(nil)
