package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"prcu/internal/obs"
	"prcu/internal/pad"
)

// RCU is the PRCU interface of §3.1, shared by every engine in this
// package. The plain-RCU baselines (URCU, Tree RCU, Time RCU, Dist RCU)
// implement it by ignoring values and predicates, which is exactly the
// conservative behavior the paper compares PRCU against.
type RCU interface {
	// Register allocates a reader slot (the paper's per-thread node).
	// Each concurrent reader goroutine needs its own Reader; a Reader must
	// not be used concurrently. The registry grows on demand, so the
	// engines in this package never return an error; the result stays in
	// the interface for implementations outside it.
	Register() (Reader, error)

	// WaitForReaders blocks until every read-side critical section on a
	// value v with p(v) = 1 that was entered before this call has exited
	// (the PRCU safety property, §3.1). Baseline engines wait for all
	// readers regardless of p.
	WaitForReaders(p Predicate)

	// WaitForReadersCtx is WaitForReaders bounded by ctx: it returns nil
	// after a full grace period on p, or ctx.Err() as soon as ctx is
	// cancelled or its deadline passes. An error return means the grace
	// period did NOT complete — the caller must not reclaim. Cancellation
	// is polled on the wait loops' park/backoff transitions, so a wait
	// blocked on a stalled reader returns within a scheduler yield or two
	// of the deadline. A nil or never-cancelled ctx behaves exactly like
	// WaitForReaders.
	WaitForReadersCtx(ctx context.Context, p Predicate) error

	// Name identifies the engine ("EER-PRCU", "URCU", ...), matching the
	// labels used in the paper's figures.
	Name() string

	// Stats returns an aggregated snapshot of the engine's internal
	// observability metrics. With no Metrics attached (the default) it
	// returns a zero Snapshot whose Enabled field is false.
	Stats() obs.Snapshot
}

// MetricsCarrier is implemented by every engine in this package:
// attaching a *obs.Metrics turns on engine-internal grace-period and
// reader metrics. Attach before traffic starts — the pointer is read
// without synchronization on the hot paths.
type MetricsCarrier interface {
	SetMetrics(*obs.Metrics)
	Metrics() *obs.Metrics
}

// SlotCapacitor is implemented by every engine backed by the segmented
// reader registry (via the base embed): SlotCapacity reports the number of reader slots
// currently allocated (≥ live readers, grows on demand). Observability
// attachment uses it to presize per-reader metric lanes.
type SlotCapacitor interface {
	SlotCapacity() int
}

// ReaderCounter is implemented by every engine backed by the segmented
// reader registry: LiveReaders reports the number of currently
// registered readers.
type ReaderCounter interface {
	LiveReaders() int
}

// metered is the observability hook point embedded by every engine. The
// met pointer is nil while observability is disabled, which every hook
// guards with a single predictable branch.
type metered struct {
	met *obs.Metrics
}

// SetMetrics implements MetricsCarrier.
func (m *metered) SetMetrics(mm *obs.Metrics) { m.met = mm }

// Metrics implements MetricsCarrier.
func (m *metered) Metrics() *obs.Metrics { return m.met }

// Stats implements RCU (obs.Metrics.Snapshot is nil-safe).
func (m *metered) Stats() obs.Snapshot { return m.met.Snapshot() }

// lane returns the reader lane for slot, or nil when disabled. The lane
// is re-armed for its new owner: slots are recycled, and a recycled
// lane must not smear the previous owner's counts into the next
// reader's per-slot statistics.
func (m *metered) lane(slot int) *obs.ReaderLane {
	if m.met == nil {
		return nil
	}
	l := m.met.Lane(slot)
	l.Recycle()
	return l
}

// Reader is one registered reader's handle. Enter and Exit delimit a
// read-side critical section on a value (§3.1). Critical sections must not
// nest, and Exit must receive the same value as the matching Enter.
type Reader interface {
	// Enter begins a read-side critical section on v.
	Enter(v Value)
	// Exit ends the read-side critical section on v.
	Exit(v Value)
	// Do runs fn inside a read-side critical section on v, guaranteeing
	// Exit even if fn panics (the panic is re-raised). A panicking
	// callback can therefore never leave the section open and wedge
	// every future covering grace period.
	Do(v Value, fn func())
	// Unregister releases the slot. The reader must be quiescent (outside
	// any critical section) and must not be used afterwards; engines panic
	// on a second Unregister or on Enter/Exit after Unregister.
	Unregister()
}

// readerGuard is the misuse defense every engine reader embeds: a second
// Unregister, or any use after Unregister, must panic with a clear
// message rather than corrupt the registry free list or another reader's
// slot. The flag is plain (not atomic): a Reader is owned by a single
// goroutine by contract, so the guard costs one predictable branch.
type readerGuard struct {
	closed bool
}

// check panics if the reader has been unregistered.
func (g *readerGuard) check() {
	if g.closed {
		panic("prcu: use of Reader after Unregister")
	}
}

// closing panics on a repeated Unregister. The caller runs its quiescence
// checks after this (an Unregister rejected mid-critical-section must
// leave the reader usable) and then calls markClosed.
func (g *readerGuard) closing() {
	if g.closed {
		panic("prcu: Reader.Unregister called twice")
	}
}

// markClosed commits the Unregister.
func (g *readerGuard) markClosed() { g.closed = true }

// Segment geometry: segSize slots per segment, so one uint64 bitmap per
// segment is the whole free list.
const (
	segShift = 6
	segSize  = 1 << segShift
	segMask  = segSize - 1
)

// segment is one fixed-size block of reader slots. Segments are appended
// to the registry but never moved or freed, so pointers into a segment
// (its active flags and its engine state) stay valid for the lifetime of
// the engine — that is the whole safety argument for growing under
// concurrent WaitForReaders scans.
//
// free is the per-segment lock-free free list: bit i set means slot
// base+i is free. Claiming CASes the lowest set bit away; releasing ORs
// it back. active[i] is scanned by wait-for-readers; a releasing reader
// is always quiescent, so a scan observing a stale flag sees a quiescent
// slot — safe to skip or to wait zero time on.
type segment[S any] struct {
	base int // global index of this segment's slot 0 (multiple of segSize)
	free atomic.Uint64
	// active flags are padded: they sit on the wait-for-readers scan path
	// and must not false-share with neighboring slots' flags.
	active [segSize]pad.Bool
	// state holds the engine's slot state, stride S per slot (slot i's at
	// [i*stride, (i+1)*stride)), allocated by the registry's newSeg hook at
	// append time. The slice is immutable after construction.
	state []S
}

// claim grabs a free slot in the segment, marking it active. It returns
// the in-segment index.
func (sg *segment[S]) claim() (int, bool) {
	for {
		f := sg.free.Load()
		if f == 0 {
			return 0, false
		}
		i := bits.TrailingZeros64(f)
		if sg.free.CompareAndSwap(f, f&^(uint64(1)<<uint(i))) {
			sg.active[i].Store(true)
			return i, true
		}
	}
}

// registry manages reader slot allocation for the engines as a growable
// segmented array, typed by the engine's per-slot state S. The segment
// list is reached through an atomic pointer and only ever grows
// (copy-on-append under growMu); individual segments never move, so
// concurrent WaitForReaders scans iterate a stable prefix without locks or
// copies. Acquire and release are lock-free segment bitmap operations,
// O(1) amortized.
type registry[S any] struct {
	// stride is the number of consecutive S each slot owns: 1, except for
	// the timestamp kernel's per-reader node tables. Keeping a slot's
	// state inline saves the wait scan a dependent load per reader.
	stride int
	// newSeg allocates n S for a new segment.
	newSeg func(n int) []S

	segs   atomic.Pointer[[]*segment[S]]
	growMu sync.Mutex
	// hint is the segment index acquire starts probing at — the last
	// segment that had a free slot. Purely a performance hint.
	hint atomic.Int32
	// limit is a monotone high-water mark (highest ever active slot + 1);
	// scans iterate [0, limit) and skip inactive slots. Keeping it monotone
	// avoids shrink/reuse races and costs only a cheap flag test per
	// long-dead slot.
	limit atomic.Int32
	count atomic.Int32
}

// zeroSeg is the newSeg hook for engines whose slot state starts at its
// zero value (and, with S = struct{}, for engines that keep none).
func zeroSeg[S any](n int) []S { return make([]S, n) }

// newRegistry returns a registry of stride S per slot with one segment
// pre-allocated. newSeg is invoked once per appended segment.
func newRegistry[S any](stride int, newSeg func(n int) []S) *registry[S] {
	r := &registry[S]{stride: stride, newSeg: newSeg}
	empty := make([]*segment[S], 0)
	r.segs.Store(&empty)
	r.grow(0)
	return r
}

// capacity returns the number of slots currently allocated.
func (r *registry[S]) capacity() int { return len(*r.segs.Load()) * segSize }

// grow appends one segment, unless another goroutine already grew past
// the seen segment count (the caller then rescans instead of
// over-growing).
func (r *registry[S]) grow(seen int) {
	r.growMu.Lock()
	defer r.growMu.Unlock()
	segs := *r.segs.Load()
	if len(segs) != seen {
		return
	}
	sg := &segment[S]{base: len(segs) * segSize, state: r.newSeg(segSize * r.stride)}
	sg.free.Store(^uint64(0))
	next := make([]*segment[S], len(segs)+1)
	copy(next, segs)
	next[len(segs)] = sg
	r.segs.Store(&next)
}

// acquire reserves a free slot and marks it active, growing the segment
// list when every existing segment is full. It returns the slot's global
// index and its first state.
func (r *registry[S]) acquire() (int, *S) {
	for {
		segs := *r.segs.Load()
		n := len(segs)
		start := int(r.hint.Load())
		if start < 0 || start >= n {
			start = 0
		}
		for k := 0; k < n; k++ {
			si := start + k
			if si >= n {
				si -= n
			}
			sg := segs[si]
			i, ok := sg.claim()
			if !ok {
				continue
			}
			r.hint.Store(int32(si))
			slot := sg.base + i
			for {
				l := r.limit.Load()
				if int32(slot) < l || r.limit.CompareAndSwap(l, int32(slot)+1) {
					break
				}
			}
			r.count.Add(1)
			return slot, &sg.state[i*r.stride]
		}
		r.grow(n)
	}
}

// release returns slot to the free pool. The caller must have already
// reset the engine-specific slot state to quiescent.
func (r *registry[S]) release(slot int) {
	segs := *r.segs.Load()
	si := slot >> segShift
	if slot < 0 || si >= len(segs) {
		panic(fmt.Sprintf("prcu: release of unknown reader slot %d", slot))
	}
	sg := segs[si]
	i := slot - sg.base
	bit := uint64(1) << uint(i)
	if sg.free.Load()&bit != 0 {
		panic(fmt.Sprintf("prcu: double release of reader slot %d", slot))
	}
	// Clear active before freeing the slot: once the free bit is visible a
	// new claimant may set active again, and that store must not be
	// overwritten by this release.
	sg.active[i].Store(false)
	for {
		f := sg.free.Load()
		if f&bit != 0 {
			panic(fmt.Sprintf("prcu: double release of reader slot %d", slot))
		}
		if sg.free.CompareAndSwap(f, f|bit) {
			break
		}
	}
	r.hint.Store(int32(si))
	r.count.Add(-1)
}

// forEachActive invokes fn with the first state and global index of every
// active slot below the current scan limit, until fn returns false. A
// released slot is always left quiescent by the owning engine before its
// active flag clears, so a concurrent scan observing a stale flag sees
// either an active quiescent slot or an inactive one — both safe.
func (r *registry[S]) forEachActive(fn func(st *S, slot int) bool) {
	limit := int(r.limit.Load())
	for _, sg := range *r.segs.Load() {
		if sg.base >= limit {
			return
		}
		n := min(segSize, limit-sg.base)
		for i := 0; i < n; i++ {
			if sg.active[i].Load() && !fn(&sg.state[i*r.stride], sg.base+i) {
				return
			}
		}
	}
}

// liveReaders returns the number of registered readers.
func (r *registry[S]) liveReaders() int { return int(r.count.Load()) }
