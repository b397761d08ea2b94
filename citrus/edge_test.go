package citrus

import (
	"testing"

	"prcu"
)

// TestExtremeKeys exercises the domain boundaries: key 0 (left edge of
// every interval check) and MaxUint64-1 (just below the sentinel).
func TestExtremeKeys(t *testing.T) {
	tr := New(prcu.NewEER(prcu.Options{}), FuncDomain())
	h := mustHandle(t, tr)
	defer h.Close()
	lo, hi := uint64(0), ^uint64(0)-1
	if !h.Insert(lo, 1) || !h.Insert(hi, 2) {
		t.Fatal("boundary inserts failed")
	}
	if !h.Contains(lo) || !h.Contains(hi) {
		t.Fatal("boundary keys missing")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !h.Delete(lo) || !h.Delete(hi) {
		t.Fatal("boundary deletes failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRootWithTwoChildren forces the copy-successor path on the
// tree's topmost real node repeatedly.
func TestDeleteRootWithTwoChildren(t *testing.T) {
	tr := New(prcu.NewD(prcu.Options{}), CompressedDomain(8))
	h := mustHandle(t, tr)
	defer h.Close()
	// Chain of roots: each deletion of the current root (always given two
	// children) must promote a successor copy.
	keys := []uint64{50, 25, 75, 60, 80, 55, 65}
	for _, k := range keys {
		h.Insert(k, k)
	}
	for _, root := range []uint64{50, 55, 60} {
		if !h.Delete(root) {
			t.Fatalf("delete root %d failed", root)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after deleting %d: %v", root, err)
		}
	}
	for _, k := range []uint64{25, 75, 65, 80} {
		if !h.Contains(k) {
			t.Fatalf("key %d lost across root deletions", k)
		}
	}
}

// TestSuccessorIsImmediateRightChild pins the prevSucc == curr branch of
// deleteInternal (successor with no left subtree).
func TestSuccessorIsImmediateRightChild(t *testing.T) {
	tr := New(prcu.NewTimeRCU(prcu.Options{}), WildcardDomain())
	h := mustHandle(t, tr)
	defer h.Close()
	h.Insert(10, 1)
	h.Insert(5, 2)
	h.Insert(20, 3) // 20 = successor of 10, immediate right child
	h.Insert(30, 4)
	if !h.Delete(10) {
		t.Fatal("delete failed")
	}
	for _, k := range []uint64{5, 20, 30} {
		if !h.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGetValueStability: Get must return the value stored by the insert
// that created the key, across unrelated churn.
func TestGetValueStability(t *testing.T) {
	tr := New(prcu.NewDEER(prcu.Options{}), CompressedDomain(16))
	h := mustHandle(t, tr)
	defer h.Close()
	h.Insert(7, 777)
	for i := uint64(0); i < 500; i++ {
		h.Insert(100+i%50, i)
		h.Delete(100 + (i+25)%50)
		if v, ok := h.Get(7); !ok || v != 777 {
			t.Fatalf("Get(7) = %d,%v after churn step %d", v, ok, i)
		}
	}
}

// TestReinsertAfterInternalDelete: after the copy-successor dance, the
// deleted key must be insertable again and land correctly.
func TestReinsertAfterInternalDelete(t *testing.T) {
	tr := New(prcu.NewD(prcu.Options{}), CompressedDomain(8))
	h := mustHandle(t, tr)
	defer h.Close()
	for _, k := range []uint64{50, 25, 75, 60, 90} {
		h.Insert(k, k)
	}
	if !h.Delete(50) {
		t.Fatal("delete")
	}
	if !h.Insert(50, 500) {
		t.Fatal("re-insert")
	}
	if v, ok := h.Get(50); !ok || v != 500 {
		t.Fatalf("Get(50) = %d,%v", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRejectsStaleNilEdge replays the interleaving the nil-edge tag
// exists for: a traversal observes a nil edge, a second handle inserts
// and deletes a leaf there (the edge is nil again, only its tag moved),
// and the stale observation must fail Insert's validation; Insert's retry
// then lands the key in BST order.
func TestInsertRejectsStaleNilEdge(t *testing.T) {
	tr := New(prcu.NewEER(prcu.Options{}), FuncDomain())
	h1, h2 := mustHandle(t, tr), mustHandle(t, tr)
	defer h1.Close()
	defer h2.Close()
	h1.Insert(10, 10)
	h1.Insert(20, 20)

	s := h1.g.Enter(tr.domain.MapKey(15))
	p, dir, tag, c := tr.traverse(s, 15)
	prev, found := prcu.GuardEscape(s, p), c != nil
	h1.g.Exit(s)
	if found || prev.key != 20 || dir != 0 {
		t.Fatalf("traverse(15) = prev %d dir %d found %v, want the nil left edge of 20", prev.key, dir, found)
	}

	if !h2.Insert(17, 17) || !h2.Delete(17) {
		t.Fatal("churn on the observed edge failed")
	}
	if prev.child[dir].LoadLocked() != nil || prev.w.marked {
		t.Fatal("churn did not restore the observed edge; only the tag should differ")
	}
	if tr.link(prev, dir, tag, 15, 150) {
		t.Fatal("stale nil-edge observation passed Insert's validation")
	}
	if !h1.Insert(15, 150) {
		t.Fatal("Insert(15) after the rejected attempt failed")
	}
	if got := tr.Keys(); len(got) != 3 || got[0] != 10 || got[1] != 15 || got[2] != 20 {
		t.Fatalf("Keys = %v, want [10 15 20]", got)
	}
	if v, ok := h1.Get(15); !ok || v != 150 {
		t.Fatalf("Get(15) = %d,%v", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteInternalRejectsStaleSuccessorTag is the same interleaving on
// the two-child delete's successor walk: between the walk and the
// validation a second handle inserts and deletes a leaf under the
// successor, and the stale succ.tag[0] must send the delete back to retry.
// Both successor shapes: the right child itself, and deeper down.
func TestDeleteInternalRejectsStaleSuccessorTag(t *testing.T) {
	for _, tc := range []struct {
		name       string
		keys       []uint64
		succ, leaf uint64
		want       []uint64
	}{
		{"right-child", []uint64{50, 30, 70}, 70, 60, []uint64{30, 70}},
		{"leftmost", []uint64{50, 30, 70, 60}, 60, 55, []uint64{30, 60, 70}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(prcu.NewD(prcu.Options{}), CompressedDomain(8))
			h1, h2 := mustHandle(t, tr), mustHandle(t, tr)
			defer h1.Close()
			defer h2.Close()
			for _, k := range tc.keys {
				h1.Insert(k, k)
			}

			prev := tr.root
			curr := prev.child[0].LoadLocked()
			prevSucc, succ, succTag := successor(curr, curr.child[1].LoadLocked())
			if curr.key != 50 || succ.key != tc.succ {
				t.Fatalf("successor of %d = %d, want %d", curr.key, succ.key, tc.succ)
			}

			if !h2.Insert(tc.leaf, tc.leaf) || !h2.Delete(tc.leaf) {
				t.Fatal("churn under the successor failed")
			}
			prev.w.mu.Lock()
			curr.w.mu.Lock()
			if tr.deleteInternal(prev, 0, curr, prevSucc, succ, succTag) {
				t.Fatal("stale successor tag passed deleteInternal's validation")
			}
			for _, n := range []*node{prev, curr, succ} {
				if !n.w.mu.TryLock() {
					t.Fatalf("node %d still locked after the rejected attempt", n.key)
				}
				n.w.mu.Unlock()
			}

			if !h1.Delete(50) {
				t.Fatal("Delete(50) after the rejected attempt failed")
			}
			got := tr.Keys()
			if len(got) != len(tc.want) {
				t.Fatalf("Keys = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Keys = %v, want %v", got, tc.want)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
