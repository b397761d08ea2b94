package prcu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ReaderPool caches registered readers for ephemeral goroutines.
//
// Register is cheap but not free — it claims a registry slot and, on some
// engines, a block of per-reader state — so a goroutine that lives for one
// request should not pay it per request. A ReaderPool keeps warm readers in
// a sync.Pool: Get hands out an already-registered handle (registering a
// fresh one only when the pool is empty), Put parks it for the next
// borrower, and Critical wraps the whole borrow/Enter/Exit/return cycle
// around one function call.
//
// A parked reader stays registered but quiescent, so it never delays
// WaitForReaders. Close drains the pool and unregisters cached readers
// synchronously — the contract for tests and clean shutdowns. When the
// garbage collector purges the pool's cache (or a borrowed handle is
// leaked), a finalizer unregisters the underlying reader as a fallback,
// so pooled slots are reclaimed rather than leaked either way.
//
// Long-lived, pinned goroutines should still call RCU.Register directly
// and keep their Reader for life — that is one pointer dereference cheaper
// per section and gives stable per-reader observability lanes. The pool is
// for everything that comes and goes.
//
// A ReaderPool must not be copied after first use.
type ReaderPool struct {
	eng    RCU
	pool   sync.Pool
	closed atomic.Bool
}

// NewReaderPool returns a pool of registered readers of r. Get panics if
// the engine refuses to register a reader (the engines in this package
// never do).
func NewReaderPool(r RCU) *ReaderPool { return &ReaderPool{eng: r} }

// Engine returns the engine the pool's readers register on.
func (p *ReaderPool) Engine() RCU { return p.eng }

// drainCache empties the sync.Pool cache, unregistering every cached
// handle.
func (p *ReaderPool) drainCache() {
	for {
		h, _ := p.pool.Get().(*pooledReader)
		if h == nil {
			return
		}
		h.retire()
	}
}

// pooledReader is the handle Get lends out. Its Unregister returns the
// handle to the pool instead of releasing the underlying reader, so code
// written against the plain Reader contract (register, use, unregister)
// works unchanged on a pooled handle.
type pooledReader struct {
	rd   Reader
	pool *ReaderPool
	// out is true while the handle is checked out. Like the rest of the
	// Reader contract it is single-goroutine state: it exists to turn
	// use-after-Put bugs into immediate panics, not to synchronize.
	out bool
}

// retire releases the handle's registry slot and drops its finalizer.
func (h *pooledReader) retire() {
	runtime.SetFinalizer(h, nil)
	h.rd.Unregister()
}

// Get borrows a registered reader, registering a fresh one if the pool is
// empty. The handle is for the calling goroutine only; return it with Put
// (or its own Unregister) when done. Panics if the underlying engine
// refuses to register a reader.
func (p *ReaderPool) Get() Reader {
	if p.closed.Load() {
		panic("prcu: ReaderPool.Get after Close")
	}
	if h, _ := p.pool.Get().(*pooledReader); h != nil {
		h.out = true
		return h
	}
	rd, err := p.eng.Register()
	if err != nil {
		panic("prcu: ReaderPool.Get: " + err.Error())
	}
	h := &pooledReader{rd: rd, pool: p, out: true}
	// If the handle becomes unreachable — leaked by a borrower, or parked
	// in the pool when the GC purges the pool's cache — release its
	// registry slot instead of leaking it.
	runtime.SetFinalizer(h, finalizePooledReader)
	return h
}

// Put returns a handle obtained from Get to the pool. The handle must be
// quiescent (outside any critical section) and must not be used again
// until re-borrowed. Put panics on a handle from another pool or on a
// second Put of the same handle. A Put that arrives after (or concurrent
// with) Close is a defined no-op beyond releasing the handle's slot —
// never a panic — so shutdown does not have to order Close against
// in-flight borrowers.
func (p *ReaderPool) Put(rd Reader) {
	h, ok := rd.(*pooledReader)
	if !ok || h.pool != p {
		panic("prcu: ReaderPool.Put of a Reader not obtained from this pool")
	}
	if !h.out {
		panic("prcu: ReaderPool.Put called twice")
	}
	h.out = false
	if p.closed.Load() {
		// The pool is shut down: release the slot now instead of parking a
		// reader no Get will hand out again.
		h.retire()
		return
	}
	p.pool.Put(h)
	if p.closed.Load() {
		// Close ran between the check above and the cache insert and may
		// have finished its drain already; re-drain so the handle cannot
		// linger registered in a cache nobody will empty.
		p.drainCache()
	}
}

// Close drains the pool and unregisters every cached reader synchronously,
// releasing their registry slots. After Close, Get panics and Put releases
// the returned handle's slot immediately. Close is idempotent and safe to
// race against concurrent Get/Put/Critical: borrowers that lose the race
// release their slots on Put.
//
// Handles still checked out are not touched — they release on their Put —
// and any cache entries sync.Pool keeps out of reach of a drain fall back
// to the finalizer, as unpooled leaks always have.
func (p *ReaderPool) Close() {
	p.closed.Store(true)
	p.drainCache()
}

// Critical runs fn inside a read-side critical section on v, borrowing a
// pooled reader for the duration. The reader is exited and returned even
// if fn panics.
func (p *ReaderPool) Critical(v Value, fn func()) {
	rd := p.Get()
	rd.Enter(v)
	defer criticalExit(p, rd, v)
	fn()
}

// criticalExit is deferred by Critical as a plain call (no closure, no
// allocation) so the borrow cycle stays cheap enough for hot paths.
func criticalExit(p *ReaderPool, rd Reader, v Value) {
	rd.Exit(v)
	p.Put(rd)
}

// Enter implements Reader.
func (h *pooledReader) Enter(v Value) {
	if !h.out {
		panic("prcu: use of pooled Reader after Put")
	}
	h.rd.Enter(v)
}

// Exit implements Reader.
func (h *pooledReader) Exit(v Value) {
	if !h.out {
		panic("prcu: use of pooled Reader after Put")
	}
	h.rd.Exit(v)
}

// Do implements Reader: runs fn inside a panic-safe critical section on
// the borrowed reader (see Reader.Do).
func (h *pooledReader) Do(v Value, fn func()) {
	if !h.out {
		panic("prcu: use of pooled Reader after Put")
	}
	h.rd.Do(v, fn)
}

// Unregister implements Reader by returning the handle to its pool — the
// underlying reader stays registered and warm (or, after Close, releasing
// its slot). This keeps Close/teardown code
// portable between pinned and pooled readers.
func (h *pooledReader) Unregister() {
	h.pool.Put(h)
}

// finalizePooledReader releases the underlying registry slot of an
// unreachable handle. A handle leaked inside a critical section cannot be
// unregistered (the engine rejects that, and the section can never exit);
// the recover keeps the finalizer goroutine alive and lets the slot leak,
// which is the best available outcome for that bug.
func finalizePooledReader(h *pooledReader) {
	defer func() { _ = recover() }()
	h.rd.Unregister()
}
