package citrus

import "fmt"

// Validate checks the structural invariants of a quiescent tree: the BST
// ordering property, no reachable marked nodes, no reachable sentinel
// duplicates, and agreement between the reachable key count and Size. It
// must only be called while no operations are in flight (it takes no locks
// and is intended for tests and integrity checks at rest).
func (t *Tree) Validate() error {
	count := 0
	if err := validateNode(t.root.child[0].LoadLocked(), 0, sentinelKey, &count); err != nil {
		return err
	}
	if r := t.root.child[1].LoadLocked(); r != nil {
		return fmt.Errorf("citrus: sentinel grew a right child (key %d)", r.key)
	}
	if got := t.Size(); got != count {
		return fmt.Errorf("citrus: Size() = %d but %d keys reachable", got, count)
	}
	return nil
}

// validateNode checks the subtree at n against the open key interval
// [low, high), accumulating the reachable key count.
func validateNode(n *node, low, high uint64, count *int) error {
	if n == nil {
		return nil
	}
	if n.key < low || n.key >= high {
		return fmt.Errorf("citrus: key %d outside interval [%d, %d)", n.key, low, high)
	}
	n.w.mu.Lock()
	marked := n.w.marked
	n.w.mu.Unlock()
	if marked {
		return fmt.Errorf("citrus: marked node %d reachable in quiescent tree", n.key)
	}
	*count++
	if err := validateNode(n.child[0].LoadLocked(), low, n.key, count); err != nil {
		return err
	}
	return validateNode(n.child[1].LoadLocked(), n.key+1, high, count)
}

// Keys returns the tree's keys in ascending order. Like Validate it is a
// quiescent-only helper: it takes no locks and must not race with updates.
func (t *Tree) Keys() []uint64 {
	keys := make([]uint64, 0, t.Size())
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.child[0].LoadLocked())
		keys = append(keys, n.key)
		walk(n.child[1].LoadLocked())
	}
	walk(t.root.child[0].LoadLocked())
	return keys
}
