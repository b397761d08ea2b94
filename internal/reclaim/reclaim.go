// Package reclaim is the bounded deferred-reclamation subsystem: a
// sharded call_rcu backlog with batching, watermark backpressure and an
// expedited overload path.
//
// The paper's asynchronous wait-for-readers (§2.1) trades caller
// blocking for deferred work, and notes nothing bounds that deferral: a
// retirement storm grows the callback backlog without limit until the
// process dies. Kernel RCU answers this shape with per-CPU callback
// lists, the qhimark/blimit watermarks and expedited grace periods when
// backlogged; this package gives PRCU the same production posture while
// keeping the paper's per-predicate targeted waits:
//
//   - Retirements enqueue onto one of several shards. Shard affinity is
//     processor-local (a sync.Pool-cached ticket, so goroutines sharing
//     a P share a shard — the userspace analogue of per-CPU lists) and
//     each shard has its own flush worker, so submission never contends
//     on a global queue.
//   - Each shard flushes its queue as a batch. The coalescer merges the
//     batch's predicates — equal and adjacent singletons/intervals fuse
//     into covering intervals, general predicates fuse into one
//     disjunction — so one grace period retires many callbacks while
//     every wait still covers exactly (a superset of) the readers each
//     callback must outlive. Over-covering is always safe (§3.1); the
//     batch never waits for less than any member's predicate demands.
//   - The reclaimer tracks callback count and caller-declared bytes
//     globally. Crossing the soft watermark (half the hard limit)
//     expedites flushing; crossing the hard limit applies backpressure:
//     under PolicyBlock the caller blocks until the backlog drains,
//     under PolicyInline it synchronously waits its own grace period and
//     frees inline — graceful degradation instead of OOM.
//   - Close drains everything; CloseCtx bounds the drain and drops
//     (counting) callbacks whose grace period could not complete.
package reclaim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// Policy selects how Retire behaves once the backlog crosses the hard
// watermark (MaxPending callbacks or MaxBytes declared bytes).
type Policy uint8

const (
	// PolicyBlock (the default) blocks the retiring caller until the
	// backlog drains below the watermark. Flushing is expedited first, so
	// the block lasts roughly one grace period.
	PolicyBlock Policy = iota
	// PolicyInline makes the overloaded caller synchronously wait its own
	// grace period and run its free callback inline — the §2.1 synchronous
	// variant as a degraded mode. The backlog never grows past the
	// watermark and no caller blocks on another's grace period.
	PolicyInline
)

// DefaultFlushDelay is the batch-accumulation window a shard waits after
// the first retirement before flushing, letting a burst coalesce into
// one grace period. Expedited flushes (soft watermark, Flush, Barrier,
// shutdown) skip it.
const DefaultFlushDelay = 200 * time.Microsecond

// Config parameterizes a Reclaimer. The zero value is an unbounded,
// delay-batched reclaimer with processor-count shards.
type Config struct {
	// Shards is the number of callback queues/flush workers. 0 picks
	// min(GOMAXPROCS, 8). 1 gives strict submission-order processing.
	Shards int
	// MaxPending is the hard watermark on unresolved callbacks across all
	// shards; 0 means unbounded. Half of it is the soft watermark that
	// expedites flushing.
	MaxPending int
	// MaxBytes is the hard watermark on the sum of caller-declared bytes
	// across unresolved callbacks; 0 means unbounded. Half of it is the
	// soft watermark. A single retirement declaring more than MaxBytes is
	// resolved inline under any policy (it could never fit).
	MaxBytes int64
	// SoftPending overrides the derived soft watermark on callback count
	// (0 = half of MaxPending). It must not exceed MaxPending when both
	// are set — New panics on inverted watermarks.
	SoftPending int
	// SoftBytes overrides the derived soft watermark on declared bytes
	// (0 = half of MaxBytes). It must not exceed MaxBytes when both are
	// set.
	SoftBytes int64
	// Policy selects the hard-watermark behavior; see PolicyBlock.
	Policy Policy
	// FlushDelay overrides the batch-accumulation window: 0 means
	// DefaultFlushDelay, negative means flush immediately (no batching
	// beyond what accumulates during in-flight grace periods).
	FlushDelay time.Duration
	// Metrics, when non-nil, receives backlog gauges, batch-size and
	// flush-latency histograms, and overload counters/trace events. It
	// may be the same Metrics attached to the engine.
	Metrics *obs.Metrics
}

// callback is one deferred retirement. Exactly one completion style is
// set: free(v) runs only after a completed grace period; fnErr always
// runs and receives the wait's error, nil meaning the grace period
// completed.
type callback struct {
	pred  core.Predicate
	v     any
	free  func(any)
	fnErr func(error)
	bytes int64
	// atNs is the enqueue stamp on the reclaimer's clock, taken under the
	// shard lock and only where something reads it: on the member that
	// opens a queue (the basis of the data-age gauge, OldestAge) and on
	// every member while the flight recorder is armed. 0 means unstamped;
	// such a member is no older than the first of its batch.
	atNs int64
}

// run resolves the callback with its wait's outcome and reports whether
// it counts as freed (false = dropped).
func (cb *callback) run(err error) bool {
	switch {
	case cb.fnErr != nil:
		cb.fnErr(err)
		return true
	case err == nil:
		if cb.free != nil {
			cb.free(cb.v)
		}
		return true
	default:
		// The grace period did not complete; freeing now could release
		// memory a reader still holds. Drop, and count the drop.
		return false
	}
}

// Reclaimer is the sharded, bounded deferred-reclamation engine.
// Construct with New; Close (or CloseCtx) must be called to release the
// flush workers.
type Reclaimer struct {
	eng   core.RCU
	met   *obs.Metrics
	clock tsc.Clock // age-gauge timebase

	// Fixed by Config at construction.
	policy      Policy
	maxPending  int
	maxBytes    int64
	softPending int           // 0 = none
	softBytes   int64         // 0 = none
	flushDelay  time.Duration // 0 = flush immediately

	// workCtx is cancelled at bounded shutdown to abort in-flight waits;
	// workers survive cancelled waits and keep draining (fast-failing).
	workCtx    context.Context
	cancelWork context.CancelFunc

	// Global capacity accounting. pending/pendingBytes are the
	// authoritative backlog; the obs gauges mirror them inside the same
	// critical sections so a concurrent Snapshot can never observe a
	// value above the hard watermark.
	capMu        sync.Mutex
	space        *sync.Cond // signalled when capacity frees or on close
	pending      int
	pendingBytes int64
	closed       bool

	shards []*shard
	aff    sync.Pool     // *affinity tickets for P-local shard choice
	rr     atomic.Uint32 // round-robin seed for fresh tickets

	dropped atomic.Uint64
	graces  atomic.Uint64
	inline  atomic.Uint64
	bp      atomic.Uint64
}

// affinity is a shard ticket cached per-P by the sync.Pool, giving
// goroutines that share a processor a shared shard without any runtime
// introspection.
type affinity struct{ idx uint32 }

// New returns a running Reclaimer flushing through r's grace periods.
// It panics on an invalid Config: negative watermarks, or a soft
// watermark above its hard counterpart (an inversion that would
// otherwise silently disable expedited flushing until overload).
func New(r core.RCU, cfg Config) *Reclaimer {
	validate(cfg)
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 8 {
			n = 8
		}
	}
	met := cfg.Metrics
	if met == nil {
		// Unlike engine-side observability (off by default: it rides the
		// read hot path), reclaim accounting lives on already-locked
		// queue transitions, so Stats always works out of the box.
		met = obs.New()
	}
	rc := &Reclaimer{
		eng:         r,
		met:         met,
		clock:       tsc.NewMonotonic(),
		policy:      cfg.Policy,
		maxPending:  cfg.MaxPending,
		maxBytes:    cfg.MaxBytes,
		softPending: cfg.SoftPending,
		softBytes:   cfg.SoftBytes,
		flushDelay:  normalizeDelay(cfg.FlushDelay),
	}
	// Unset soft watermarks default to half their hard counterparts.
	if rc.softPending == 0 {
		rc.softPending = (cfg.MaxPending + 1) / 2
	}
	if rc.softBytes == 0 {
		rc.softBytes = (cfg.MaxBytes + 1) / 2
	}
	met.SetReclaimAgeProbe(rc.OldestAgeNs)
	rc.workCtx, rc.cancelWork = context.WithCancel(context.Background())
	rc.space = sync.NewCond(&rc.capMu)
	rc.aff.New = func() any { return &affinity{idx: rc.rr.Add(1)} }
	rc.shards = make([]*shard, n)
	for i := range rc.shards {
		rc.shards[i] = newShard(rc, i)
	}
	return rc
}

// validate panics on a Config New must refuse. The messages name the
// field so a misconfigured service fails loudly at construction instead
// of silently never expediting (inverted soft marks) or never bounding
// (negative marks, which over()/soft() would treat as unbounded).
func validate(cfg Config) {
	if cfg.MaxPending < 0 {
		panic("prcu/reclaim: negative MaxPending watermark")
	}
	if cfg.MaxBytes < 0 {
		panic("prcu/reclaim: negative MaxBytes watermark")
	}
	if cfg.SoftPending < 0 {
		panic("prcu/reclaim: negative SoftPending watermark")
	}
	if cfg.SoftBytes < 0 {
		panic("prcu/reclaim: negative SoftBytes watermark")
	}
	if cfg.MaxPending > 0 && cfg.SoftPending > cfg.MaxPending {
		panic("prcu/reclaim: inverted watermarks: SoftPending exceeds MaxPending")
	}
	if cfg.MaxBytes > 0 && cfg.SoftBytes > cfg.MaxBytes {
		panic("prcu/reclaim: inverted watermarks: SoftBytes exceeds MaxBytes")
	}
}

// normalizeDelay maps the FlushDelay convention (0 = default, negative =
// immediate) onto the stored accumulation window.
func normalizeDelay(d time.Duration) time.Duration {
	if d == 0 {
		return DefaultFlushDelay
	}
	if d < 0 {
		return 0
	}
	return d
}

// shard returns the submitting goroutine's shard.
func (r *Reclaimer) shard() *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	t := r.aff.Get().(*affinity)
	s := r.shards[int(t.idx)%len(r.shards)]
	r.aff.Put(t)
	return s
}

// Retire schedules free(v) to run after a grace period covering p,
// declaring bytes of backlog accounting for v. It never blocks for the
// grace period itself; it may block (PolicyBlock) or degrade to an
// inline grace period (PolicyInline) when the backlog is at the hard
// watermark. free may be nil when only the wait matters (Go's GC frees
// v; the reclaimer still bounds and accounts the deferral). Retire
// panics after Close.
func (r *Reclaimer) Retire(v any, p core.Predicate, bytes int, free func(any)) {
	r.submit(&callback{pred: p, v: v, free: free, bytes: int64(bytes)})
}

// Defer schedules fn to run once a grace period covering p completes or
// the reclaimer shuts down without completing it: fn receives nil after
// a full grace period, or the abandonment error — in which case nothing
// covered by p may be reclaimed. Error-aware callbacks are never
// dropped. Defer panics after Close.
func (r *Reclaimer) Defer(p core.Predicate, bytes int, fn func(error)) {
	r.submit(&callback{pred: p, fnErr: fn, bytes: int64(bytes)})
}

// submit routes cb through capacity admission to its shard. Callbacks
// refused by admission (inline degradation or closed-while-blocked) are
// resolved synchronously by admit and never enqueued. cb stays on the
// caller's stack: its one copy is the store into the queue slot.
func (r *Reclaimer) submit(cb *callback) {
	if soft, ok := r.admit(cb); ok {
		r.shard().enqueue(cb, soft)
	}
}

// over reports whether accepting bytes more would cross a hard
// watermark. Caller holds capMu.
func (r *Reclaimer) over(bytes int64) bool {
	return (r.maxPending > 0 && r.pending+1 > r.maxPending) ||
		(r.maxBytes > 0 && r.pendingBytes+bytes > r.maxBytes)
}

// soft reports whether the backlog has reached a soft watermark. Caller
// holds capMu.
func (r *Reclaimer) soft() bool {
	return (r.softPending > 0 && r.pending >= r.softPending) ||
		(r.softBytes > 0 && r.pendingBytes >= r.softBytes)
}

// admit reserves backlog capacity for cb, applying the configured
// overload behavior. It returns ok = false when cb was already resolved
// (inline wait, or the reclaimer closed while the caller was blocked);
// soft = true tells the enqueuer to expedite its shard's flush.
func (r *Reclaimer) admit(cb *callback) (soft, ok bool) {
	overloaded := false
	for {
		r.capMu.Lock()
		if r.closed {
			r.capMu.Unlock()
			if overloaded {
				// The caller submitted before Close and was parked at the
				// watermark; the shard workers may already be gone, so
				// resolve here rather than enqueue into the void.
				r.inlineResolve(cb)
				return false, false
			}
			panic("prcu: Retire on closed Reclaimer")
		}
		oversize := r.maxBytes > 0 && cb.bytes > r.maxBytes
		if !oversize && !r.over(cb.bytes) {
			r.pending++
			r.pendingBytes += cb.bytes
			soft = r.soft()
			r.met.ReclaimEnqueue(cb.bytes)
			r.capMu.Unlock()
			return soft, true
		}
		backlog := uint64(r.pending)
		if r.policy == PolicyInline || oversize {
			r.capMu.Unlock()
			r.met.ReclaimOverload(obs.OverloadInline, backlog)
			r.inlineResolve(cb)
			return false, false
		}
		if !overloaded {
			overloaded = true
			r.bp.Add(1)
			r.met.ReclaimOverload(obs.OverloadBackpressure, backlog)
		}
		r.capMu.Unlock()
		// Expedite every shard before parking: the fastest way out of
		// backpressure is finishing the batches that hold the capacity.
		// (Done outside capMu — shard locks are never taken under it.)
		r.expediteAll()
		r.capMu.Lock()
		if r.over(cb.bytes) && !r.closed {
			r.space.Wait()
		}
		r.capMu.Unlock()
	}
}

// inlineResolve is the degraded path: wait cb's own grace period
// synchronously on the caller's goroutine and resolve it, without ever
// touching the backlog.
func (r *Reclaimer) inlineResolve(cb *callback) {
	r.inline.Add(1)
	err := r.eng.WaitForReadersCtx(r.workCtx, cb.pred)
	if !cb.run(err) {
		r.dropped.Add(1)
	}
}

// release returns the capacity of n resolved callbacks — dropped of them
// abandoned, the rest freed — declaring bytes in total. A wait group is
// released as a unit: one capMu round trip, one gauge update and one
// wake-up of the callers parked at the watermark, however many members
// the group had.
func (r *Reclaimer) release(n, dropped int, bytes int64) {
	if dropped > 0 {
		r.dropped.Add(uint64(dropped))
	}
	r.capMu.Lock()
	r.pending -= n
	r.pendingBytes -= bytes
	r.met.ReclaimResolve(n-dropped, dropped, bytes)
	bounded := r.maxPending > 0 || r.maxBytes > 0
	r.capMu.Unlock()
	if bounded {
		r.space.Broadcast()
	}
}

// Engine returns the engine grace periods run on.
func (r *Reclaimer) Engine() core.RCU { return r.eng }

// Flush expedites every shard: queued callbacks are batched and their
// grace periods started immediately, skipping any remaining
// accumulation delay. Flush does not wait for them to resolve; use
// Barrier for that.
func (r *Reclaimer) Flush() { r.expediteAll() }

func (r *Reclaimer) expediteAll() {
	for _, s := range r.shards {
		s.expediteFlush()
	}
}

// Barrier blocks until every callback submitted before it has been
// resolved — freed, delivered its error, or (under a bounded shutdown)
// dropped. Flushing is expedited, so with a healthy engine Barrier
// returns after roughly one coalesced grace period per shard.
func (r *Reclaimer) Barrier() {
	for _, s := range r.shards {
		s.drainWait()
	}
}

// Pending returns the backlog: callbacks accepted and not yet resolved.
func (r *Reclaimer) Pending() int {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.pending
}

// PendingBytes returns the caller-declared bytes held by the backlog.
func (r *Reclaimer) PendingBytes() int64 {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.pendingBytes
}

// Dropped returns the number of callbacks abandoned because their grace
// period did not complete before a bounded shutdown gave up (error-aware
// Defer callbacks take delivery of the error instead and are never
// dropped).
func (r *Reclaimer) Dropped() uint64 { return r.dropped.Load() }

// Graces returns the number of grace periods issued on behalf of the
// backlog — the denominator of the batching win (Pending+resolved
// callbacks per grace period).
func (r *Reclaimer) Graces() uint64 { return r.graces.Load() }

// InlineWaits returns the number of retirements resolved by a
// synchronous caller-side grace period under overload.
func (r *Reclaimer) InlineWaits() uint64 { return r.inline.Load() }

// BackpressureWaits returns the number of retirements that blocked at
// the hard watermark before being accepted.
func (r *Reclaimer) BackpressureWaits() uint64 { return r.bp.Load() }

// OldestAge returns the age of the oldest unresolved callback — the
// reclaimer's data-age gauge: how stale the most overdue deferred
// free is. 0 means an empty backlog. The estimate is conservative
// within one batch (a batch's age is its oldest member's) and is taken
// on the same monotonic clock that stamps submissions.
func (r *Reclaimer) OldestAge() time.Duration {
	return time.Duration(r.OldestAgeNs())
}

// OldestAgeNs is OldestAge in integer nanoseconds, the form the obs
// age probe exports. A batch carries the enqueue stamp of the member that
// opened its queue, which every later member was enqueued after, so the
// oldest batch stamp across all shards bounds every unresolved callback.
func (r *Reclaimer) OldestAgeNs() int64 {
	oldest := int64(0)
	for _, s := range r.shards {
		if at := s.oldestNs(); at > 0 && (oldest == 0 || at < oldest) {
			oldest = at
		}
	}
	if oldest == 0 {
		return 0
	}
	return max(r.clock.Now()-oldest, 0)
}

// Stats returns the attached Metrics' snapshot (zero Snapshot when no
// Metrics was configured).
func (r *Reclaimer) Stats() obs.Snapshot { return r.met.Snapshot() }

// Close drains all outstanding callbacks (running each after its grace
// period) and stops the flush workers. Close is idempotent; concurrent
// and repeated calls all block until the drain finishes.
func (r *Reclaimer) Close() { _ = r.CloseCtx(context.Background()) }

// CloseCtx is Close bounded by ctx: if the drain has not finished when
// ctx expires — a wedged reader can stall grace periods indefinitely —
// every remaining wait is cancelled, error-aware callbacks run with the
// cancellation error, plain callbacks are dropped (see Dropped), the
// workers stop, and CloseCtx returns ctx.Err(). A nil error means a
// complete, clean drain.
func (r *Reclaimer) CloseCtx(ctx context.Context) error {
	r.capMu.Lock()
	already := r.closed
	r.closed = true
	r.capMu.Unlock()
	if !already {
		r.space.Broadcast()
		for _, s := range r.shards {
			s.close()
		}
	}
	var cdone <-chan struct{}
	if ctx != nil {
		cdone = ctx.Done()
	}
	err := error(nil)
	for _, s := range r.shards {
		select {
		case <-s.done:
		case <-cdone:
			r.cancelWork()
			err = ctx.Err()
			cdone = nil // already cancelled; just collect the rest
		}
		if err != nil {
			<-s.done
		}
	}
	return err
}
