package core

import (
	"context"

	"prcu/internal/obs"
	"prcu/internal/spin"
	"prcu/internal/tsc"
)

// Simulated wraps an engine so that WaitForReaders performs no memory
// accesses and only burns the same average time the real engine's waits
// take. It reproduces the paper's methodology for isolating cache-coherency
// costs (§6.1 "Read overhead"): readers keep paying the engine's full
// Enter/Exit costs, but no wait-for-readers traffic ever invalidates their
// bookkeeping lines, so any throughput difference between an engine and its
// Simulated twin is the coherence cost of reader/waiter communication.
//
// Simulated deliberately breaks the safety property — it is a measurement
// instrument, usable only in benchmarks whose correctness does not depend
// on grace periods (the paper's throughput runs tolerate this because the
// benchmark never frees memory and Go's GC keeps stale pointers valid).
type Simulated struct {
	inner    RCU
	waitNs   int64
	clock    Clock
	spinStep int
}

// NewSimulated wraps inner so every WaitForReaders spins for waitNs
// nanoseconds (the measured mean wait latency of the real engine) without
// touching shared state.
func NewSimulated(inner RCU, waitNs int64) *Simulated {
	return &Simulated{
		inner:  inner,
		waitNs: waitNs,
		clock:  tsc.NewMonotonic(),
	}
}

// Name implements RCU.
func (s *Simulated) Name() string { return s.inner.Name() + " (simulated wait)" }

// Register implements RCU: readers are real, with the full per-engine
// Enter/Exit cost.
func (s *Simulated) Register() (Reader, error) { return s.inner.Register() }

// Stats implements RCU, delegating to the wrapped engine — reader-side
// metrics are real even though waits are simulated.
func (s *Simulated) Stats() obs.Snapshot { return s.inner.Stats() }

// WaitForReaders implements RCU by spinning for the configured duration.
// Only the local clock is read; no shared memory is accessed.
func (s *Simulated) WaitForReaders(Predicate) {
	if s.waitNs <= 0 {
		return
	}
	deadline := s.clock.Now() + s.waitNs
	var w spin.Waiter
	for s.clock.Now() < deadline {
		w.Wait()
	}
}

// WaitForReadersCtx implements RCU: the simulated spin, cut short by ctx.
// As in the real engines, cancellation is polled only once the waiter has
// crossed into its yielding phase.
func (s *Simulated) WaitForReadersCtx(ctx context.Context, _ Predicate) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	if s.waitNs <= 0 {
		return nil
	}
	deadline := s.clock.Now() + s.waitNs
	var w spin.Waiter
	for s.clock.Now() < deadline {
		w.Wait()
		if done != nil && w.Yielded() {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
	}
	return nil
}

// Nop is an RCU whose every operation is free: Enter, Exit and
// WaitForReaders do nothing. It is unsafe by construction and exists only
// to measure the ceiling a data structure could reach with zero
// synchronization overhead (used by the read-overhead ablation).
type Nop struct {
	metered
	reg *registry[struct{}]
}

// NewNop returns a no-op engine.
func NewNop() *Nop { return &Nop{reg: newRegistry(1, zeroSeg[struct{}])} }

// Name implements RCU.
func (n *Nop) Name() string { return "No-op (unsafe)" }

// LiveReaders returns the number of currently registered readers.
func (n *Nop) LiveReaders() int { return n.reg.liveReaders() }

type nopReader struct {
	readerGuard
	n    *Nop
	slot int
}

// Register implements RCU.
func (n *Nop) Register() (Reader, error) {
	slot, _ := n.reg.acquire()
	return &nopReader{n: n, slot: slot}, nil
}

// WaitForReaders implements RCU: returns immediately, waiting for no one.
func (n *Nop) WaitForReaders(Predicate) {}

// WaitForReadersCtx implements RCU: the no-op "grace period" completes
// instantly, so it never observes cancellation.
func (n *Nop) WaitForReadersCtx(context.Context, Predicate) error { return nil }

// Enter implements Reader: does nothing. Deliberately unguarded — Nop
// measures the zero-synchronization ceiling, so its read side must stay
// empty; Unregister misuse is still caught below.
func (r *nopReader) Enter(Value) {}

// Exit implements Reader: does nothing.
func (r *nopReader) Exit(Value) {}

// Do implements Reader: runs fn with the same zero-cost read side.
func (r *nopReader) Do(_ Value, fn func()) { fn() }

// Unregister implements Reader.
func (r *nopReader) Unregister() {
	r.closing()
	r.markClosed()
	r.n.reg.release(r.slot)
}
