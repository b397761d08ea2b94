// Package opttree implements the optimistic concurrent search tree of
// Bronson, Casper, Chafi and Olukotun ("A Practical Concurrent Binary
// Search Tree", PPoPP 2010) — the paper's non-RCU performance yardstick
// ("Opt-Tree", §6.1).
//
// The tree is partially external: removing a key from a node with two
// children merely clears its value, leaving a routing node; nodes with at
// most one child are physically unlinked. Reads are optimistic: they
// descend without locks, validating per-node version numbers hand over
// hand, and retry from the parent when a version moved. Updates use
// fine-grained per-node locks. Structural changes that can invalidate a
// concurrent descent (unlinks and rotations) set a "shrinking" bit in the
// affected node's version for their duration and leave the version
// permanently changed afterwards.
//
// Relaxed AVL balancing is maintained: after every structural change the
// updater walks toward the root fixing heights and rotating where the
// local balance exceeds one, taking locks parent-before-child.
package opttree

import (
	"sync"
	"sync/atomic"

	"prcu/internal/spin"
)

// Version-word layout: bit 0 marks an unlinked node (permanent), bit 1
// marks a shrink in progress (transient), and the remaining bits count
// completed shrinks so a reader that validated before a shrink observes a
// different version after it.
const (
	unlinkedBit  = 1
	shrinkingBit = 2
	versionIncr  = 4
)

type node struct {
	key     uint64
	version atomic.Uint64
	// hasValue distinguishes a live key from a routing node; value is the
	// payload. Both change only under mu but are read optimistically.
	hasValue atomic.Bool
	value    atomic.Uint64
	parent   atomic.Pointer[node]
	left     atomic.Pointer[node]
	right    atomic.Pointer[node]
	height   atomic.Int64
	mu       sync.Mutex
}

func (n *node) child(dir int) *atomic.Pointer[node] {
	if dir == 0 {
		return &n.left
	}
	return &n.right
}

func height(n *node) int64 {
	if n == nil {
		return 0
	}
	return n.height.Load()
}

// waitUntilShrinkDone spins while n's version has the shrinking bit set.
func waitUntilShrinkDone(n *node, ovl uint64) {
	if ovl&shrinkingBit == 0 {
		return
	}
	var w spin.Waiter
	for n.version.Load() == ovl {
		w.Wait()
	}
}

// Tree is a concurrent partially-external AVL tree. The zero value is not
// usable; construct with New.
type Tree struct {
	// rootHolder is a sentinel whose right child is the tree root, so the
	// root can be rotated and unlinked like any other node.
	rootHolder *node
	size       atomic.Int64
}

// New returns an empty tree.
func New() *Tree {
	rh := &node{}
	rh.height.Store(1)
	return &Tree{rootHolder: rh}
}

// Size returns the number of live keys (exact at rest).
func (t *Tree) Size() int { return int(t.size.Load()) }

const (
	retry     = -1 // descend failed validation; caller retries from its frame
	notInTree = 0
	found     = 1
)

// Get returns the value stored under k.
func (t *Tree) Get(k uint64) (uint64, bool) {
	for {
		right := t.rootHolder.right.Load()
		if right == nil {
			return 0, false
		}
		ovl := right.version.Load()
		if ovl&(shrinkingBit|unlinkedBit) != 0 {
			waitUntilShrinkDone(right, ovl)
			continue
		}
		if t.rootHolder.right.Load() != right {
			continue
		}
		if v, res := attemptGet(k, right, ovl); res != retry {
			return v, res == found
		}
	}
}

// Contains reports whether k is present.
func (t *Tree) Contains(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

func attemptGet(k uint64, n *node, nOVL uint64) (uint64, int) {
	for {
		if k == n.key {
			// Re-validate before trusting the read: if the version moved,
			// this node may have been unlinked or rotated away.
			v := n.value.Load()
			has := n.hasValue.Load()
			if n.version.Load() != nOVL {
				return 0, retry
			}
			if !has {
				return 0, notInTree
			}
			return v, found
		}
		dir := 0
		if k > n.key {
			dir = 1
		}
		child := n.child(dir).Load()
		if n.version.Load() != nOVL {
			return 0, retry
		}
		if child == nil {
			return 0, notInTree
		}
		childOVL := child.version.Load()
		if childOVL&shrinkingBit != 0 {
			waitUntilShrinkDone(child, childOVL)
			if n.version.Load() != nOVL {
				return 0, retry
			}
			continue
		}
		if childOVL&unlinkedBit != 0 || n.child(dir).Load() != child {
			if n.version.Load() != nOVL {
				return 0, retry
			}
			continue
		}
		if n.version.Load() != nOVL {
			return 0, retry
		}
		if v, res := attemptGet(k, child, childOVL); res != retry {
			return v, res
		}
		// Child-level retry: re-validate our frame and redo the step.
		if n.version.Load() != nOVL {
			return 0, retry
		}
	}
}

// Insert adds k with value val, returning false if k is already live.
func (t *Tree) Insert(k, val uint64) bool {
	for {
		right := t.rootHolder.right.Load()
		if right == nil {
			// Empty tree: install the first node under the holder's lock.
			t.rootHolder.mu.Lock()
			if t.rootHolder.right.Load() == nil {
				n := &node{key: k}
				n.hasValue.Store(true)
				n.value.Store(val)
				n.height.Store(1)
				n.parent.Store(t.rootHolder)
				t.rootHolder.right.Store(n)
				t.rootHolder.mu.Unlock()
				t.size.Add(1)
				return true
			}
			t.rootHolder.mu.Unlock()
			continue
		}
		ovl := right.version.Load()
		if ovl&(shrinkingBit|unlinkedBit) != 0 {
			waitUntilShrinkDone(right, ovl)
			continue
		}
		if t.rootHolder.right.Load() != right {
			continue
		}
		if res := t.attemptInsert(k, val, right, ovl); res != retry {
			return res == found
		}
	}
}

// attemptInsert returns found if it inserted, notInTree if the key was
// already live, retry to restart from the caller's frame.
func (t *Tree) attemptInsert(k, val uint64, n *node, nOVL uint64) int {
	for {
		if k == n.key {
			// Revive a routing node or report a duplicate.
			n.mu.Lock()
			if n.version.Load() != nOVL {
				n.mu.Unlock()
				return retry
			}
			if n.hasValue.Load() {
				n.mu.Unlock()
				return notInTree
			}
			n.value.Store(val)
			n.hasValue.Store(true)
			n.mu.Unlock()
			t.size.Add(1)
			return found
		}
		dir := 0
		if k > n.key {
			dir = 1
		}
		child := n.child(dir).Load()
		if n.version.Load() != nOVL {
			return retry
		}
		if child == nil {
			// Try to link a fresh leaf here.
			n.mu.Lock()
			if n.version.Load() != nOVL || n.child(dir).Load() != nil {
				n.mu.Unlock()
				if n.version.Load() != nOVL {
					return retry
				}
				continue
			}
			leaf := &node{key: k}
			leaf.hasValue.Store(true)
			leaf.value.Store(val)
			leaf.height.Store(1)
			leaf.parent.Store(n)
			n.child(dir).Store(leaf)
			n.mu.Unlock()
			t.size.Add(1)
			t.fixHeightAndRebalance(n)
			return found
		}
		childOVL := child.version.Load()
		if childOVL&shrinkingBit != 0 {
			waitUntilShrinkDone(child, childOVL)
			if n.version.Load() != nOVL {
				return retry
			}
			continue
		}
		if childOVL&unlinkedBit != 0 || n.child(dir).Load() != child {
			if n.version.Load() != nOVL {
				return retry
			}
			continue
		}
		if n.version.Load() != nOVL {
			return retry
		}
		if res := t.attemptInsert(k, val, child, childOVL); res != retry {
			return res
		}
		if n.version.Load() != nOVL {
			return retry
		}
	}
}

// Delete removes k, returning whether it was live. A node with two
// children becomes a routing node; otherwise the node is unlinked.
func (t *Tree) Delete(k uint64) bool {
	for {
		right := t.rootHolder.right.Load()
		if right == nil {
			return false
		}
		ovl := right.version.Load()
		if ovl&(shrinkingBit|unlinkedBit) != 0 {
			waitUntilShrinkDone(right, ovl)
			continue
		}
		if t.rootHolder.right.Load() != right {
			continue
		}
		if res := t.attemptDelete(k, t.rootHolder, right, ovl); res != retry {
			return res == found
		}
	}
}

func (t *Tree) attemptDelete(k uint64, parent, n *node, nOVL uint64) int {
	for {
		if k == n.key {
			return t.attemptRemoveNode(parent, n, nOVL)
		}
		dir := 0
		if k > n.key {
			dir = 1
		}
		child := n.child(dir).Load()
		if n.version.Load() != nOVL {
			return retry
		}
		if child == nil {
			return notInTree
		}
		childOVL := child.version.Load()
		if childOVL&shrinkingBit != 0 {
			waitUntilShrinkDone(child, childOVL)
			if n.version.Load() != nOVL {
				return retry
			}
			continue
		}
		if childOVL&unlinkedBit != 0 || n.child(dir).Load() != child {
			if n.version.Load() != nOVL {
				return retry
			}
			continue
		}
		if n.version.Load() != nOVL {
			return retry
		}
		if res := t.attemptDelete(k, n, child, childOVL); res != retry {
			return res
		}
		if n.version.Load() != nOVL {
			return retry
		}
	}
}

// attemptRemoveNode deletes n's value, unlinking n when it has at most one
// child. parent is n's parent in the caller's descent.
func (t *Tree) attemptRemoveNode(parent, n *node, nOVL uint64) int {
	if n.left.Load() != nil && n.right.Load() != nil {
		// Two children: just clear the value (n becomes a routing node).
		n.mu.Lock()
		if n.version.Load() != nOVL {
			n.mu.Unlock()
			return retry
		}
		if !n.hasValue.Load() {
			n.mu.Unlock()
			return notInTree
		}
		// Still two children? If one vanished meanwhile we can unlink
		// after all — fall through to the splice path below.
		if n.left.Load() != nil && n.right.Load() != nil {
			n.hasValue.Store(false)
			n.mu.Unlock()
			t.size.Add(-1)
			return found
		}
		n.mu.Unlock()
	}

	// At most one child: splice n out under parent + n locks. n is locked
	// only once parent is known to still be its parent: after a rotation
	// parent can be n's child, and locking n then would take a child's
	// lock before its parent's, against fixHeightAndRebalance's order.
	parent.mu.Lock()
	dir := 0
	if parent.right.Load() == n {
		dir = 1
	}
	if parent.version.Load()&unlinkedBit != 0 || parent.child(dir).Load() != n {
		parent.mu.Unlock()
		return retry
	}
	n.mu.Lock()
	if n.version.Load() != nOVL {
		n.mu.Unlock()
		parent.mu.Unlock()
		return retry
	}
	if !n.hasValue.Load() {
		n.mu.Unlock()
		parent.mu.Unlock()
		return notInTree
	}
	left, rightC := n.left.Load(), n.right.Load()
	if left != nil && rightC != nil {
		// Grew a second child since the check: clear the value instead.
		n.hasValue.Store(false)
		n.mu.Unlock()
		parent.mu.Unlock()
		t.size.Add(-1)
		return found
	}
	splice := left
	if splice == nil {
		splice = rightC
	}
	// Publish the shrink so optimistic descents through n retry.
	n.version.Store(nOVL | shrinkingBit)
	parent.child(dir).Store(splice)
	if splice != nil {
		splice.parent.Store(parent)
	}
	n.version.Store((nOVL + versionIncr) | unlinkedBit)
	n.hasValue.Store(false)
	n.mu.Unlock()
	parent.mu.Unlock()
	t.size.Add(-1)
	t.fixHeightAndRebalance(parent)
	return found
}
