package core

import (
	"context"

	"prcu/internal/obs"
	"prcu/internal/pad"
)

// DistRCU implements the distributed-counters RCU of Arbel and Attiya
// (§2.2): no global grace-period counter, just a per-reader critical
// section counter. A waiter snapshots each reader's counter and waits for
// the reader either to advance it or to be outside a critical section.
// Waits are read-only, so — like the PRCU engines — concurrent waits scale
// without synchronizing with each other.
//
// A single generation counter encodes both pieces of state: even means
// quiescent, odd means inside a critical section. This is the RCU the
// original CITRUS tree used (the paper's Time RCU is its TSC-optimized
// successor).
type DistRCU struct {
	base[pad.Uint64]
}

// NewDistRCU returns a distributed-counters RCU engine.
func NewDistRCU() *DistRCU {
	d := &DistRCU{}
	d.setup("Dist RCU", 1, zeroSeg[pad.Uint64])
	return d
}

type distReader struct {
	readerGuard
	d    *DistRCU
	gen  *pad.Uint64
	lane *obs.ReaderLane
	slot int
}

// Register implements RCU.
func (d *DistRCU) Register() (Reader, error) {
	slot, g := d.reg.acquire()
	if g.Load()&1 == 1 {
		panic("prcu: reader slot reused while marked in-CS")
	}
	return &distReader{d: d, gen: g, lane: d.lane(slot), slot: slot}, nil
}

// Enter implements Reader. The value is ignored — Dist RCU is a plain RCU.
func (r *distReader) Enter(v Value) {
	r.check()
	r.gen.Add(1)
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader.
func (r *distReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.gen.Add(1)
}

// Do implements Reader.
func (r *distReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *distReader) Unregister() {
	r.closing()
	if r.gen.Load()&1 == 1 {
		panic("prcu: Unregister inside a read-side critical section")
	}
	r.markClosed()
	r.d.reg.release(r.slot)
	r.gen = nil
}

// WaitForReaders implements RCU.
func (d *DistRCU) WaitForReaders(p Predicate) { d.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers, bounded by ctx when
// it is non-nil. The predicate is ignored. A reader found inside a section
// (odd generation) is waited for until its generation moves. The scan is
// read-only, so an abandoned wait leaves nothing behind.
func (d *DistRCU) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &d.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	d.reg.forEachActive(func(g *pad.Uint64, slot int) bool {
		s.scanned++
		gen := g.Load()
		return gen&1 == 0 || s.await(slot, func() bool { return g.Load() == gen })
	})
	return s.end()
}
