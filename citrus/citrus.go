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
	"unsafe"

	"prcu"
	"prcu/internal/pad"
)

// sentinelKey is the reserved key of the root sentinel; user keys must be
// smaller, so every real node lives in the sentinel's left subtree and the
// sentinel itself can never be deleted.
const sentinelKey = math.MaxUint64

// node is a tree node's search half, 32 bytes so two share a cache line
// (DESIGN.md "CITRUS layout"); a search that returns no value never loads
// w. key is immutable; the child pointers are guarded cells — readers
// traverse them only through an open *prcu.Scope, updaters through the
// LoadLocked/Store side under the fine-grained locks.
type node struct {
	key   uint64
	child [2]prcu.Cell[node]
	w     *nodeSync
}

// nodeSync is a node's writer half. value is immutable once the node is
// published; the tags version nil-child slots so an optimistic traversal
// that observed nil can detect an intervening insert+delete when it
// validates; marked flags a node that has been spliced out or replaced,
// and is guarded by mu.
type nodeSync struct {
	value  uint64
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

// Tree is a CITRUS tree. Construct with New; obtain a Handle per goroutine.
// A full line separates the read-mostly head from the counters each
// update writes, so no update invalidates a search's first line.
type Tree struct {
	// pool holds the tree's engine (pool.Engine()): a second copy here
	// would push Tree out of the 128-byte size class and split the read
	// head across cache lines in most allocations.
	pool   *prcu.ReaderPool
	domain Domain
	root   *node
	// rec, when set, moves two-child deletions' grace-period waits off
	// the deleting goroutine; see SetReclaimer.
	rec *prcu.Reclaimer

	_        [pad.CacheLineSize]byte
	size     atomic.Int64
	deferred atomic.Uint64
}

// nodeBytes is the backlog byte declaration for one deferred unlink.
const nodeBytes = int(unsafe.Sizeof(node{}) + unsafe.Sizeof(nodeSync{}))

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
	return &Tree{
		pool:   prcu.NewReaderPool(r),
		domain: domain,
		root:   &node{key: sentinelKey, w: &nodeSync{}},
	}
}

// Engine returns the engine the tree was built on.
func (t *Tree) Engine() prcu.RCU { return t.pool.Engine() }

// Handle is one goroutine's access to the tree, wrapping its reader slot
// in a typed guard: every traversal happens inside a *prcu.Scope obtained
// from the guard, and the child cells refuse loads without one. A Handle
// must not be used concurrently.
type Handle struct {
	t *Tree
	g *prcu.GuardedReader
}

// NewHandle registers a pinned reader slot and returns a handle. Call
// Close when the goroutine is done with the tree. Registration fails only
// on an engine outside this module that can refuse a reader; prefer Handle
// for ephemeral goroutines.
func (t *Tree) NewHandle() (*Handle, error) {
	rd, err := t.Engine().Register()
	if err != nil {
		return nil, err
	}
	return &Handle{t: t, g: prcu.WrapReader(rd)}, nil
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
// prev, the direction taken from prev, and curr (nil, or the node holding
// k); when curr is nil, tag is that edge's tag, read before the last load
// of the child. The scope s witnesses the read-side critical section.
// A tag is read only at an edge whose child loads nil, then the child is
// re-loaded: any run is a run, executed later, of the loop reading every
// edge's tag before its child, since the tags this skips were of non-nil
// edges and that loop discarded them unused (DESIGN.md "CITRUS layout").
func (t *Tree) traverse(s *prcu.Scope, k uint64) (prev *node, dir int, tag uint64, curr *node) {
	prev = t.root
	for {
		if curr = prev.child[dir].Load(s); curr == nil {
			tag = prev.w.tag[dir].Load()
			if curr = prev.child[dir].Load(s); curr == nil {
				return prev, dir, tag, nil
			}
		}
		if curr.key == k {
			return prev, dir, 0, curr
		}
		prev, dir = curr, dirFor(k, curr)
	}
}

// lookup walks to the node holding k, reading its value in place only
// when val is non-nil. The scope s witnesses the section on MapKey(k).
func (t *Tree) lookup(s *prcu.Scope, k uint64, val *uint64) bool {
	curr := t.root.child[0].Load(s)
	for curr != nil && curr.key != k {
		curr = curr.child[dirFor(k, curr)].Load(s)
	}
	if curr != nil && val != nil {
		*val = curr.w.value
	}
	return curr != nil
}

// Contains reports whether k is in the tree. It is wait-free: one RCU
// traversal, no locks, no retries.
func (h *Handle) Contains(k uint64) bool { return h.read(k, nil) }

// Get returns the value stored under k.
func (h *Handle) Get(k uint64) (val uint64, ok bool) {
	ok = h.read(k, &val)
	return val, ok
}

// read runs lookup under GuardedReader.Read, so a panicking lookup
// re-raises with the critical section closed instead of wedging every
// future covering grace period.
func (h *Handle) read(k uint64, val *uint64) (ok bool) {
	checkKey(k)
	h.g.Read(h.t.domain.MapKey(k), func(s *prcu.Scope) {
		ok = h.t.lookup(s, k, val)
	})
	return ok
}

// Get is the one-shot form: it borrows a pooled reader for a single
// lookup. Hot loops should hold a Handle instead and amortize the borrow.
func (t *Tree) Get(k uint64) (val uint64, ok bool) {
	ok = t.read(k, &val)
	return val, ok
}

// Contains is the one-shot membership test; see Get.
func (t *Tree) Contains(k uint64) bool { return t.read(k, nil) }

// read is the one-shot lookup, on Enter/Exit rather than Read so the typed
// reader stays on this frame and the borrow allocates nothing; the deferred
// calls close the section and return the reader even if lookup panics.
func (t *Tree) read(k uint64, val *uint64) bool {
	checkKey(k)
	rd := t.pool.Get()
	defer t.pool.Put(rd)
	g := prcu.WrapReader(rd)
	s := g.Enter(t.domain.MapKey(k))
	defer g.Exit(s)
	return t.lookup(s, k, val)
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
		if t.link(prev, dir, tag, k, val) {
			return true
		}
	}
}

// link attaches a leaf (k, val) at prev's dir edge if traverse's
// observation — nil, with tag — still holds under prev's lock.
func (t *Tree) link(prev *node, dir int, tag, k, val uint64) bool {
	prev.w.mu.Lock()
	defer prev.w.mu.Unlock()
	if prev.w.marked || prev.child[dir].LoadLocked() != nil || prev.w.tag[dir].Load() != tag {
		return false
	}
	prev.child[dir].Store(&node{key: k, w: &nodeSync{value: val}})
	t.size.Add(1)
	return true
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
		prev.w.mu.Lock()
		curr.w.mu.Lock()
		if prev.w.marked || curr.w.marked || prev.child[dir].LoadLocked() != curr {
			curr.w.mu.Unlock()
			prev.w.mu.Unlock()
			continue
		}
		left, right := curr.child[0].LoadLocked(), curr.child[1].LoadLocked()
		if left == nil || right == nil {
			// At most one child: splice curr out.
			repl := left
			if repl == nil {
				repl = right
			}
			curr.w.marked = true
			prev.child[dir].Store(repl)
			if repl == nil {
				prev.w.tag[dir].Add(1)
			}
			curr.w.mu.Unlock()
			prev.w.mu.Unlock()
			t.size.Add(-1)
			return true
		}
		prevSucc, succ, succTag := successor(curr, right)
		if t.deleteInternal(prev, dir, curr, prevSucc, succ, succTag) {
			t.size.Add(-1)
			return true
		}
		// Validation deeper down failed; locks already released.
	}
}

// successor finds curr's successor — the leftmost node of its right
// subtree — with its parent and its nil left edge's tag, read as in
// traverse and correct by the same argument. The walk is optimistic, on
// the updater-side (LoadLocked) cells of unlocked nodes: deleteInternal
// revalidates it under locks, and Go's GC rules out use-after-free.
func successor(curr, right *node) (prevSucc, succ *node, succTag uint64) {
	prevSucc, succ = curr, right
	for {
		next := succ.child[0].LoadLocked()
		if next == nil {
			succTag = succ.w.tag[0].Load()
			if next = succ.child[0].LoadLocked(); next == nil {
				return prevSucc, succ, succTag
			}
		}
		prevSucc, succ = succ, next
	}
}

// deleteInternal handles the two-children case, given successor's
// observation. Caller holds prev and curr locks and has validated them;
// deleteInternal releases all locks before returning. It returns false if
// the successor validation failed and the whole operation must retry.
func (t *Tree) deleteInternal(prev *node, dir int, curr, prevSucc, succ *node, succTag uint64) bool {
	if prevSucc != curr {
		prevSucc.w.mu.Lock()
	}
	succ.w.mu.Lock()

	dirPS := 0
	if prevSucc == curr {
		dirPS = 1
	}
	ok := !prevSucc.w.marked && prevSucc.child[dirPS].LoadLocked() == succ &&
		!succ.w.marked && succ.child[0].LoadLocked() == nil && succ.w.tag[0].Load() == succTag
	if !ok {
		succ.w.mu.Unlock()
		if prevSucc != curr {
			prevSucc.w.mu.Unlock()
		}
		curr.w.mu.Unlock()
		prev.w.mu.Unlock()
		return false
	}

	// Replace curr with a copy of the successor. New operations find the
	// successor's key at its new location immediately; the original stays
	// reachable for pre-existing traversals until the grace period ends.
	curr.w.marked = true
	n := &node{key: succ.key, w: &nodeSync{value: succ.w.value}}
	n.child[0].Store(curr.child[0].LoadLocked())
	n.child[1].Store(curr.child[1].LoadLocked())
	// Lock the copy before publishing so no concurrent update can touch it
	// while we are still rewiring its right edge below.
	n.w.mu.Lock()
	prev.child[dir].Store(n)

	// finish is everything that must wait for the grace period: mark the
	// original successor so pre-existing inserts cannot attach children
	// to it, unlink it, and release every held lock. On an abandoned
	// grace period (bounded shutdown) it releases the locks only — the
	// published intermediate state with both copies reachable is safe for
	// readers, whereas unlinking early is not. succ is still marked so a
	// validation can never splice children onto the leaked node.
	finish := func(err error) {
		succ.w.marked = true
		if err == nil {
			succRight := succ.child[1].LoadLocked()
			if prevSucc == curr {
				n.child[1].Store(succRight)
				if succRight == nil {
					n.w.tag[1].Add(1)
				}
			} else {
				prevSucc.child[0].Store(succRight)
				if succRight == nil {
					prevSucc.w.tag[0].Add(1)
				}
			}
		}
		n.w.mu.Unlock()
		succ.w.mu.Unlock()
		if prevSucc != curr {
			prevSucc.w.mu.Unlock()
		}
		curr.w.mu.Unlock()
		prev.w.mu.Unlock()
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
		rec.Defer(pred, nodeBytes, finish)
		return true
	}
	t.Engine().WaitForReaders(pred)
	finish(nil)
	return true
}
