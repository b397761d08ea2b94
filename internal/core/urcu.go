package core

import (
	"context"
	"sync"

	"prcu/internal/obs"
	"prcu/internal/pad"
)

// urcuPhase is the grace-period phase bit in the global counter and in
// reader snapshots; urcuCount marks a reader as online (Desnoyers et al.'s
// nest count, fixed at one since critical sections do not nest here).
const (
	urcuPhase uint64 = 1 << 63
	urcuCount uint64 = 1
)

// URCU implements the userspace RCU of Desnoyers et al. (§2.2): a global
// grace-period counter with a phase bit, per-reader snapshots, and a global
// lock serializing writers. Each wait flips the phase twice and drains the
// readers of the old phase after each flip — the classic two-phase protocol
// that tolerates a reader whose counter snapshot is one grace period stale.
//
// The global writer lock is the scalability bottleneck the paper measures;
// it is reproduced faithfully (Go's sync.Mutex hands off roughly FIFO under
// contention, standing in for URCU's waiter queue).
type URCU struct {
	base[pad.Uint64]
	gp pad.Uint64
	mu sync.Mutex
}

// NewURCU returns a URCU engine.
func NewURCU() *URCU {
	u := &URCU{}
	u.setup("URCU", 1, zeroSeg[pad.Uint64])
	u.gp.Store(urcuCount)
	return u
}

type urcuReader struct {
	readerGuard
	u    *URCU
	ctr  *pad.Uint64
	lane *obs.ReaderLane
	slot int
}

// Register implements RCU.
func (u *URCU) Register() (Reader, error) {
	slot, c := u.reg.acquire()
	c.Store(0)
	return &urcuReader{u: u, ctr: c, lane: u.lane(slot), slot: slot}, nil
}

// Enter implements Reader: snapshot the global grace-period counter. The
// value is ignored — URCU is a plain RCU. The SC atomic store provides the
// memory fence URCU issues in rcu_read_lock.
func (r *urcuReader) Enter(v Value) {
	r.check()
	r.ctr.Store(r.u.gp.Load())
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader: go offline.
func (r *urcuReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.ctr.Store(0)
}

// Do implements Reader.
func (r *urcuReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *urcuReader) Unregister() {
	r.closing()
	if r.ctr.Load() != 0 {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.u.reg.release(r.slot)
	r.ctr = nil
}

// ongoing reports whether reader snapshot c belongs to a critical section
// the current grace period must wait for: online, and from the old phase.
func ongoing(c, gp uint64) bool {
	return c&urcuCount != 0 && (c^gp)&urcuPhase != 0
}

// WaitForReaders implements RCU.
func (u *URCU) WaitForReaders(p Predicate) { u.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers, bounded by ctx when
// it is non-nil. The predicate is ignored. Readers are scanned once per
// phase flip, so the scanned count reflects slots examined across both
// phases.
//
// Cancellation mid-protocol is safe: an abandoned phase flip only toggles
// the phase bit an extra time, and the next wait performs its own two
// flips and drains both phases, so it still waits for every pre-existing
// reader.
func (u *URCU) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &u.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	u.mu.Lock()
	for phase := 0; phase < 2 && s.err == nil; phase++ {
		gp := u.gp.Load() ^ urcuPhase
		u.gp.Store(gp)
		u.reg.forEachActive(func(c *pad.Uint64, slot int) bool {
			s.scanned++
			return !ongoing(c.Load(), gp) || s.await(slot, func() bool { return ongoing(c.Load(), gp) })
		})
	}
	u.mu.Unlock()
	return s.end()
}
