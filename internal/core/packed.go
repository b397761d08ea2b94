package core

import (
	"context"
	"sync"

	"prcu/internal/obs"
	"prcu/internal/pad"
)

// Packed is the epoch kernel: the packed-state epoch RCU, the yanet2-style
// variant of the classic epoch scheme in which each reader's entire
// wait-visible state — the in-critical-section flag and the grace-period
// epoch it entered under — lives in one 32-bit atomic word. Enter is one
// load of the global epoch and one store of the packed word; Exit is a
// single store of zero (no global access at all); neither performs a
// read-modify-write. Wait-for-readers advances the epoch with a
// fetch-and-add — the flip and the seq-cst fence the protocol needs are
// the same instruction — and then scans reader words, skipping any slot
// whose word it observes inactive with a single load.
//
// Word layout (bit 0 is the cheap bit to test):
//
//	bit 0      active: the reader is inside a critical section
//	bits 1..31 epoch: the global epoch observed at Enter, pre-shifted
//
// The global epoch gp is kept pre-shifted (always even, advancing by
// packedEpochInc), so Enter composes the word with a single OR and the
// wait-side comparison needs no shifting.
//
// As NewURCU builds it, the kernel is the userspace RCU of Desnoyers et
// al. (§2.2): the same reader, with waiters serialized behind a global
// writer lock. That lock is the scalability bottleneck the paper measures,
// and it is reproduced faithfully (Go's sync.Mutex hands off roughly FIFO
// under contention, standing in for URCU's waiter queue). URCU's original
// phase is one bit, which is what forces its mutex and its second flip;
// here the epoch is a 31-bit monotone counter compared with
// wraparound-safe signed arithmetic (packedOngoing), so Packed's
// concurrent waiters need no mutex: each fetch-and-adds its own flip and
// drains everything older.
//
// Every wait still performs the two-phase flip (two fetch-and-adds, each
// followed by a drain). With a monotone epoch the first drain alone
// already covers every pre-existing reader; the second phase is retained
// deliberately: it is the cost the paper measures for URCU, it mirrors the
// yanet2 protocol shape, and it means a reader's stale epoch must survive
// 2^30 grace periods *within one critical section* before signed
// comparison could alias — twice the single-phase margin. See DESIGN.md,
// "Packed reader word", for the full happens-before argument (why
// acquire/release pairing suffices for the reader word in the C11 model,
// where the seq-cst fence at the flip is still mandatory, and why Go's
// all-seq-cst sync/atomic discharges both obligations).
type Packed struct {
	base[pad.Uint32]
	// mu serializes URCU's waiters; Packed's never take it.
	mu        sync.Mutex
	serialize bool
	// The pad starts gp on the second of the struct's two cache lines (a
	// line-aligned size class), the one line Enter touches: away from the
	// mutex URCU's waiters write and from the fields every wait reads
	// (measured: Packed's busy-wait p50 +20 % with gp on the first line).
	_ [7]byte
	// gp is the global epoch, pre-shifted into bits 1..31 (always even).
	// It only ever advances, via Add — the RMW doubles as the seq-cst
	// fence between a waiter's prior stores and its reader-word scan.
	gp pad.Uint32
}

const (
	// packedActive is the in-critical-section flag, bit 0 of the word.
	packedActive uint32 = 1
	// packedEpochInc advances the pre-shifted epoch by one.
	packedEpochInc uint32 = 2
)

// NewPacked returns a packed-state epoch engine: the epoch kernel with
// lock-free waiters.
func NewPacked() *Packed { return newEpoch("Packed RCU", false) }

// NewURCU returns a URCU engine: the epoch kernel with waiters serialized
// behind a global writer lock.
func NewURCU() *Packed { return newEpoch("URCU", true) }

func newEpoch(name string, serialize bool) *Packed {
	p := &Packed{serialize: serialize}
	p.setup(name, 1, zeroSeg[pad.Uint32])
	return p
}

type packedReader struct {
	readerGuard
	p    *Packed
	word *pad.Uint32
	lane *obs.ReaderLane
	slot int
}

// Register implements RCU.
func (p *Packed) Register() (Reader, error) {
	slot, w := p.reg.acquire()
	w.Store(0)
	return &packedReader{p: p, word: w, lane: p.lane(slot), slot: slot}, nil
}

// Enter implements Reader: publish active-with-current-epoch in one
// store. The value is ignored — the epoch kernel is a plain RCU. Because
// the flag and the epoch travel in the same word, a scan can never
// observe the active bit without the epoch it belongs to (no torn state);
// because the store is a Go atomic (seq-cst), it cannot sink below the
// reads inside the critical section, and a waiter that flipped the epoch
// before this store is guaranteed to observe it during its drain. The
// SC store is also the memory fence URCU issues in rcu_read_lock.
func (r *packedReader) Enter(v Value) {
	r.check()
	r.word.Store(r.p.gp.Load() | packedActive)
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader: one store of zero, touching no shared global
// state — the release publication that lets a blocked drain pass.
func (r *packedReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.word.Store(0)
}

// Do implements Reader.
func (r *packedReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *packedReader) Unregister() {
	r.closing()
	if r.word.Load()&packedActive != 0 {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.p.reg.release(r.slot)
	r.word = nil
}

// packedOngoing reports whether reader word c belongs to a critical
// section the flip to epoch gp must wait for: active, and entered under
// an epoch strictly older than gp. The subtraction is compared signed so
// the 31-bit epoch wraps safely: "older" means "within the trailing half
// of the epoch circle", which only misclassifies a section that stayed
// open across 2^30 consecutive grace periods.
func packedOngoing(c, gp uint32) bool {
	return c&packedActive != 0 && int32((c&^packedActive)-gp) < 0
}

// WaitForReaders implements RCU.
func (p *Packed) WaitForReaders(pred Predicate) { p.WaitForReadersCtx(nil, pred) }

// WaitForReadersCtx implements RCU: wait-for-readers, bounded by ctx when
// it is non-nil. The predicate is ignored. Each phase advances the epoch
// with one fetch-and-add and drains every active reader older than the
// new epoch; readers entering during the drain adopt the new epoch and
// are skipped. One load decides a quiescent slot. URCU's waiters hold the
// writer lock across both phases; Packed's take none (see the type
// comment).
//
// Cancellation mid-protocol is safe: an abandoned flip just leaves the
// monotone epoch advanced, and the next wait fetch-and-adds past it and
// drains everything older, so it still covers every pre-existing reader.
func (p *Packed) WaitForReadersCtx(ctx context.Context, pred Predicate) error {
	s := waitSession{e: &p.hooks}
	if err := s.begin(ctx, &pred); err != nil {
		return err
	}
	if p.serialize {
		p.mu.Lock()
	}
	for phase := 0; phase < 2 && s.err == nil; phase++ {
		g := p.gp.Add(packedEpochInc)
		p.reg.forEachActive(func(c *pad.Uint32, slot int) bool {
			s.scanned++
			return !packedOngoing(c.Load(), g) || s.await(slot, func() bool { return packedOngoing(c.Load(), g) })
		})
	}
	if p.serialize {
		p.mu.Unlock()
	}
	return s.end()
}
