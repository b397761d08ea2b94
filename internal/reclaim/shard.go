package reclaim

import (
	"strconv"
	"sync"
	"time"

	"prcu/internal/obs"
)

// shard is one callback queue plus its flush worker. Submission is
// spread across shards by processor affinity; everything below the
// queue — batching, coalescing, the grace-period waits — runs on the
// shard's own goroutine, so retiring callers never execute a wait.
//
// Lock discipline: mu guards queue/spare/inFlight/expedite/closed only; it
// is never held while capMu is held and never held across a grace-period
// wait.
//
// Two batch arrays alternate between the two sides: submitters append
// into queue while the worker resolves the array it took, and the worker
// hands that array back — cleared — as spare, the next queue's backing
// store. A steady-state retirement is therefore one slot store into
// memory that already exists.
type shard struct {
	r *Reclaimer
	// idx is the shard's position in Reclaimer.shards; it names the
	// shard's flight-recorder track ("reclaim/<idx>").
	idx int

	mu       sync.Mutex
	idle     *sync.Cond // on mu; signalled when queue+inFlight may be empty
	queue    []callback
	spare    []callback // empty, cleared array for the next queue, or nil
	inFlight int        // callbacks handed to the worker, not yet resolved
	expedite bool       // skip the accumulation delay for the current queue
	closed   bool       // the reclaimer closed: the queue takes no more

	// inFlightOldestNs is the enqueue stamp of the first member of the
	// batch the worker holds — with queue[0].atNs, the basis of the
	// oldest-callback gauge. Stamps are taken under mu, so the member that
	// opened a queue is its oldest.
	inFlightOldestNs int64

	kick chan struct{} // cap 1: submission/flush/close doorbell
	done chan struct{} // closed when the worker exits
}

func newShard(r *Reclaimer, idx int) *shard {
	s := &shard{
		r:    r,
		idx:  idx,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	go s.worker()
	return s
}

// maxRecycledBatch caps the batch array a worker hands back (about 1 MB
// of callbacks): a larger one, grown by a retirement storm, goes to the
// GC instead of staying pinned to the shard.
const maxRecycledBatch = 8192

// enqueue stores *cb in the queue's next slot. soft marks the submission
// as having crossed the soft watermark, which expedites the flush. The
// worker is rung only when it can be waiting on this enqueue: parked on
// an empty queue, or sleeping out a window that expedite just cut.
//
// A submission that reserved capacity before Close but arrives after it
// finds the queue final (the worker may be gone) and is resolved here,
// on the caller's goroutine, as a batch of one.
func (s *shard) enqueue(cb *callback, soft bool) {
	r := s.r
	armed := r.met.FlightEnabled()
	s.mu.Lock()
	opens := len(s.queue) == 0
	if opens || armed || s.closed {
		cb.atNs = r.clock.Now()
	}
	if s.closed {
		s.mu.Unlock()
		s.process([]callback{*cb}, false)
		return
	}
	s.queue = append(s.queue, *cb)
	ring := opens || (soft && !s.expedite)
	if soft {
		s.expedite = true
	}
	s.mu.Unlock()
	if ring {
		s.kickWorker()
	}
}

// close marks the queue final and wakes the worker to drain it and exit.
func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.kickWorker()
}

// kickWorker rings the doorbell without blocking; a token already in
// the channel means the worker is already due to look.
func (s *shard) kickWorker() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// expediteFlush makes the worker cut its accumulation window short and
// flush whatever is queued now.
func (s *shard) expediteFlush() {
	s.mu.Lock()
	if len(s.queue) > 0 {
		s.expedite = true
	}
	s.mu.Unlock()
	s.kickWorker()
}

// drainWait blocks until every callback currently queued or in flight
// on this shard has been resolved, expediting the flush first.
func (s *shard) drainWait() {
	s.expediteFlush()
	s.mu.Lock()
	for len(s.queue) > 0 || s.inFlight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// worker is the shard's flush loop: park until kicked, optionally let a
// burst accumulate, then take the whole queue as one batch and resolve
// it through the coalescer. Exactly one worker runs per shard, so
// inFlight is written only here.
func (s *shard) worker() {
	defer close(s.done)
	r := s.r
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.mu.Unlock()
			<-s.kick
			s.mu.Lock()
		}
		if len(s.queue) == 0 {
			// Closed and drained: enqueue refuses a closed shard, so the
			// backlog here is final.
			s.mu.Unlock()
			return
		}
		delay := r.flushDelay
		wait := delay > 0 && !s.expedite && !s.closed
		s.mu.Unlock()
		if wait {
			s.accumulate(delay)
		}
		s.mu.Lock()
		batch := s.queue
		s.queue, s.spare = s.spare, nil
		s.inFlight = len(batch)
		s.inFlightOldestNs = batch[0].atNs
		expedited := s.expedite
		s.expedite = false
		s.mu.Unlock()

		s.process(batch, expedited)

		// Cleared before it is handed back, so no retired object stays
		// reachable through a slot the next queue has not overwritten yet.
		clear(batch)
		s.mu.Lock()
		s.inFlight = 0
		s.inFlightOldestNs = 0
		if batch = batch[:0]; cap(batch) <= maxRecycledBatch {
			if cap(s.queue) == 0 {
				s.queue = batch // nothing was enqueued meanwhile
			} else {
				s.spare = batch
			}
		}
		s.mu.Unlock()
		s.idle.Broadcast()
	}
}

// oldestNs returns the enqueue stamp of the shard's oldest unresolved
// batch, queued or in flight (0 = none). The in-flight batch was taken
// before the queue's first member arrived, so it is the older of the two.
func (s *shard) oldestNs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inFlight > 0 {
		return s.inFlightOldestNs
	}
	if len(s.queue) > 0 {
		return s.queue[0].atNs
	}
	return 0
}

// accumulate sleeps out the batching window so a retirement burst can
// coalesce, returning early if the window is cut by an expedited flush
// (soft watermark, Flush, Barrier) or by shutdown.
func (s *shard) accumulate(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			return
		case <-s.kick:
			s.mu.Lock()
			cut := s.expedite || s.closed
			s.mu.Unlock()
			if cut {
				return
			}
		}
	}
}

// process resolves one batch: coalesce into wait groups, run one grace
// period per group, then complete every member and release the group's
// capacity at once.
//
// With the flight recorder armed, each wait group becomes one causal
// span chain under a fresh GP ID: per-member retire spans (queue
// residency, converted from the reclaimer's clock onto the metrics
// clock; a member enqueued before the recorder was armed carries no
// stamp and takes the batch's oldest), a coalesce span, the engine's
// own wait span (the GP ID travels down via the wait Context), and a
// callback-execution span.
func (s *shard) process(batch []callback, expedited bool) {
	r := s.r
	reg := r.met.ReclaimFlushBegin()
	start := time.Now()
	flight := r.met.FlightEnabled()
	var track string
	var takenNs, clockOff, coalescedNs int64
	if flight {
		track = "reclaim/" + strconv.Itoa(s.idx)
		takenNs = r.met.FlightNow()
		// Submission stamps are on the reclaimer's clock; spans are on the
		// metrics clock. Converting durations (not instants) keeps the two
		// bases from mixing.
		clockOff = takenNs - r.clock.Now()
	}
	groups := coalesce(batch)
	if flight {
		coalescedNs = r.met.FlightNow()
	}
	for gi := range groups {
		g := &groups[gi]
		wctx := r.workCtx
		var gp uint64
		if flight {
			gp = obs.NextGP()
			for _, ci := range g.cbs {
				at := batch[ci].atNs
				if at == 0 {
					at = batch[0].atNs
				}
				r.met.FlightRecord(obs.FlightSpan{
					GP: gp, Kind: obs.SpanRetire, Track: track,
					StartNs: at + clockOff, EndNs: takenNs, Count: 1,
				})
			}
			r.met.FlightRecord(obs.FlightSpan{
				GP: gp, Kind: obs.SpanCoalesce, Track: track,
				StartNs: takenNs, EndNs: coalescedNs,
				Count: len(g.cbs), Label: g.pred.String(),
			})
			wctx = obs.WithGP(r.workCtx, gp)
		}
		err := r.eng.WaitForReadersCtx(wctx, g.pred)
		var cbStart int64
		if flight {
			cbStart = r.met.FlightNow()
		}
		var dropped int
		var bytes int64
		for _, ci := range g.cbs {
			cb := &batch[ci]
			if !cb.run(err) {
				dropped++
			}
			bytes += cb.bytes
		}
		r.release(len(g.cbs), dropped, bytes)
		if flight {
			r.met.FlightRecord(obs.FlightSpan{
				GP: gp, Kind: obs.SpanCallback, Track: track,
				StartNs: cbStart, EndNs: r.met.FlightNow(), Count: len(g.cbs),
			})
		}
	}
	r.graces.Add(uint64(len(groups)))
	r.met.ReclaimFlush(len(batch), uint64(len(groups)),
		time.Since(start).Nanoseconds(), expedited)
	if reg != nil {
		reg.End()
	}
}
