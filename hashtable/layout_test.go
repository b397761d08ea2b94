package hashtable

import (
	"testing"
	"unsafe"

	"prcu/internal/pad"
)

// TestMapHeadOffUpdateLines pins the Map header's two fences: every field
// updates or expansions write starts a full cache line past the end of the
// read-mostly head, and the reclaimer-written fields start a full line
// past the end of those, so no group shares a line with another whatever
// the header's alignment.
func TestMapHeadOffUpdateLines(t *testing.T) {
	var m Map[uint64, uint64]
	fence := func(group string, end uintptr, offs map[string]uintptr) {
		for name, off := range offs {
			if off < end+pad.CacheLineSize {
				t.Errorf("%s at offset %d is within a line of the %s ending at %d", name, off, group, end)
			}
		}
	}
	var headEnd uintptr
	for _, end := range []uintptr{
		unsafe.Offsetof(m.eng) + unsafe.Sizeof(m.eng),
		unsafe.Offsetof(m.pool) + unsafe.Sizeof(m.pool),
		unsafe.Offsetof(m.hash) + unsafe.Sizeof(m.hash),
		unsafe.Offsetof(m.tbl) + unsafe.Sizeof(m.tbl),
		unsafe.Offsetof(m.maskHint) + unsafe.Sizeof(m.maskHint),
		unsafe.Offsetof(m.ret) + unsafe.Sizeof(m.ret),
	} {
		headEnd = max(headEnd, end)
	}
	fence("read head", headEnd, map[string]uintptr{
		"resizeMu": unsafe.Offsetof(m.resizeMu), "expanding": unsafe.Offsetof(m.expanding),
		"size": unsafe.Offsetof(m.size), "waits": unsafe.Offsetof(m.waits),
	})
	var updEnd uintptr
	for _, end := range []uintptr{
		unsafe.Offsetof(m.resizeMu) + unsafe.Sizeof(m.resizeMu),
		unsafe.Offsetof(m.expanding) + unsafe.Sizeof(m.expanding),
		unsafe.Offsetof(m.size) + unsafe.Sizeof(m.size),
		unsafe.Offsetof(m.waits) + unsafe.Sizeof(m.waits),
	} {
		updEnd = max(updEnd, end)
	}
	fence("update fields", updEnd, map[string]uintptr{
		"nodePool": unsafe.Offsetof(m.nodePool), "recycled": unsafe.Offsetof(m.recycled),
	})
}
