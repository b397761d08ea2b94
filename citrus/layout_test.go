package citrus

import (
	"testing"
	"unsafe"

	"prcu/internal/pad"
)

// TestNodeIsHalfALine pins the search node at 32 bytes: two nodes share a
// cache line and none straddles one, which is what a search's walk pays
// for. The writer half lives in nodeSync.
func TestNodeIsHalfALine(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s != 32 {
		t.Fatalf("node is %d bytes, want 32", s)
	}
}

// TestTreeHeadOffUpdateLines pins the Tree header's fence: every field an
// update writes starts a full cache line past the end of the last field a
// search or update reads, so the two never share a line whatever the
// header's alignment.
func TestTreeHeadOffUpdateLines(t *testing.T) {
	var tr Tree
	var headEnd uintptr
	for _, end := range []uintptr{
		unsafe.Offsetof(tr.pool) + unsafe.Sizeof(tr.pool),
		unsafe.Offsetof(tr.domain) + unsafe.Sizeof(tr.domain),
		unsafe.Offsetof(tr.root) + unsafe.Sizeof(tr.root),
		unsafe.Offsetof(tr.rec) + unsafe.Sizeof(tr.rec),
	} {
		headEnd = max(headEnd, end)
	}
	for name, off := range map[string]uintptr{
		"size": unsafe.Offsetof(tr.size), "deferred": unsafe.Offsetof(tr.deferred),
	} {
		if off < headEnd+pad.CacheLineSize {
			t.Errorf("%s at offset %d is within a line of the read head ending at %d", name, off, headEnd)
		}
	}
}

// TestTreeFitsItsSizeClass pins Tree at 128 bytes or less: objects of
// that size class start on a cache-line boundary, so the read head sits
// in one line. The next class (144 bytes) would split it in most
// allocations.
func TestTreeFitsItsSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Tree{}); s > 128 {
		t.Fatalf("Tree is %d bytes, want at most 128", s)
	}
}
