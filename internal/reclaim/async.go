package reclaim

import (
	"context"

	"prcu/internal/core"
)

// Async provides call_rcu-style deferred execution (§2.1 "Asynchronous
// wait-for-readers"): Call records a callback and returns immediately; a
// background worker runs the callback after a grace period covering its
// predicate. It is a thin facade over a single-shard, unbounded,
// immediate-flush Reclaimer — callers needing watermarks, backpressure
// or byte accounting should construct a Reclaimer directly.
//
// Unlike classic call_rcu — which batches all callbacks behind one
// global grace period — callbacks are grouped by predicate: the batch
// coalescer merges only equal, overlapping and adjacent predicates, so
// waits stay as targeted as the predicates callers submitted (one wait
// never covers readers no batched callback needed to outlive... beyond
// the union of the batch, which is exactly the over-covering §3.1
// blesses). Callbacks accumulated while a grace period was in flight
// drain as one coalesced batch.
//
// Shutdown contract: Close drains every outstanding callback, running
// each after its grace period, and only then stops the worker — a clean
// Close never drops work. CloseCtx bounds that drain by a context, for
// shutting down on top of a wedged engine: when the context expires, all
// in-progress and remaining waits are cancelled, error-aware callbacks
// (CallCtx) run with the cancellation error, and plain callbacks are
// dropped (counted by Dropped) rather than run after an incomplete grace
// period. Both are idempotent; concurrent and repeated calls all block
// until the worker has stopped.
type Async struct {
	r *Reclaimer
}

// NewAsync starts a deferral worker on top of r. Close must be called to
// release the worker.
func NewAsync(r core.RCU) *Async {
	rc := New(r, Config{Shards: 1, FlushDelay: -1})
	rc.closedPanic = "prcu: Call on closed Async"
	return &Async{r: rc}
}

// Reclaimer returns the backing reclaimer, for callers that start with
// Async semantics and later need Flush, byte accounting or stats.
func (a *Async) Reclaimer() *Reclaimer { return a.r }

// Call schedules fn to run after a grace period covering p. It never
// blocks for the grace period. fn runs only if its grace period
// completes; if the wait is cancelled by a bounded shutdown the callback
// is dropped (see Dropped) — it must never observe an incomplete grace
// period. Call panics after Close.
func (a *Async) Call(p core.Predicate, fn func()) {
	a.r.submit(&callback{pred: p, fn: fn})
}

// CallCtx schedules fn to run once a grace period covering p completes
// or ctx is cancelled, whichever comes first: fn receives nil after a
// full grace period, or the context's error when the wait was abandoned —
// in which case the grace period did NOT complete and fn must not
// reclaim. CallCtx panics after Close.
func (a *Async) CallCtx(ctx context.Context, p core.Predicate, fn func(error)) {
	a.r.submit(&callback{pred: p, ctx: ctx, fnErr: fn})
}

// Barrier blocks until every callback submitted before it has been
// resolved — executed, or (under a bounded shutdown) dropped.
func (a *Async) Barrier() { a.r.Barrier() }

// Pending returns the number of callbacks not yet resolved.
func (a *Async) Pending() int { return a.r.Pending() }

// Dropped returns the number of plain Call callbacks abandoned because
// their grace-period wait was cancelled (CallCtx callbacks are never
// dropped — they take delivery of the error instead).
func (a *Async) Dropped() uint64 { return a.r.Dropped() }

// Close drains all outstanding callbacks (running each after its grace
// period) and stops the worker. Close is idempotent: a second Close is a
// no-op that blocks until the first drain finishes.
func (a *Async) Close() { a.r.Close() }

// CloseCtx is Close bounded by ctx: if the drain has not finished when
// ctx expires — a wedged reader can stall grace periods indefinitely —
// every remaining wait is cancelled, error-aware callbacks run with the
// cancellation error, plain callbacks are dropped, the worker stops, and
// CloseCtx returns ctx.Err(). A nil error means a complete, clean drain.
func (a *Async) CloseCtx(ctx context.Context) error { return a.r.CloseCtx(ctx) }
