package core

import (
	"context"
	"fmt"

	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// DefaultNodesPerReader is the per-reader node-array size used in the
// paper's evaluation ("we use 16 elements in our DEER-PRCU implementation",
// §4.3).
const DefaultNodesPerReader = 16

// DEER implements DEER-PRCU (Algorithm 3): EER-PRCU's per-reader,
// time-based quiescence detection combined with D-PRCU's exploitation of
// the value domain. Each reader owns a small array of nodes indexed by
// h_rcu(v); a wait-for-readers on an enumerable predicate touches only the
// nodes covered values hash to, so a reader and a waiter that do not
// conflict semantically do not conflict at the memory level either — the
// coherence ping-pong fix of §4.3.
type DEER struct {
	// A reader's slot state is its node table: a nodesPer-entry window of
	// one flat per-segment []timeNode allocation (each timeNode is
	// cache-line padded already).
	base[[]timeNode]
	clock    Clock
	nodesPer int
	mask     uint64
}

// NewDEER returns a DEER-PRCU engine capped at maxReaders concurrent
// readers (0 = grow on demand). nodesPerReader must be a power of two;
// 0 selects the paper's default of 16. If clock is nil the monotonic
// clock is used.
func NewDEER(maxReaders, nodesPerReader int, clock Clock) *DEER {
	if nodesPerReader == 0 {
		nodesPerReader = DefaultNodesPerReader
	}
	if nodesPerReader < 1 || nodesPerReader&(nodesPerReader-1) != 0 {
		panic(fmt.Sprintf("prcu: DEER-PRCU nodes per reader must be a power of two, got %d", nodesPerReader))
	}
	if clock == nil {
		clock = tsc.NewMonotonic()
	}
	d := &DEER{
		clock:    clock,
		nodesPer: nodesPerReader,
		mask:     uint64(nodesPerReader - 1),
	}
	d.setup(d, maxReaders, func(n int) [][]timeNode {
		flat := newTimeNodeSeg(n * nodesPerReader)
		tables := make([][]timeNode, n)
		for i := range tables {
			tables[i] = flat[i*nodesPerReader : (i+1)*nodesPerReader]
		}
		return tables
	})
	return d
}

// Name implements RCU.
func (d *DEER) Name() string { return "DEER-PRCU" }

// NodesPerReader returns the per-reader node-array size.
func (d *DEER) NodesPerReader() int { return d.nodesPer }

type deerReader struct {
	readerGuard
	d     *DEER
	table []timeNode
	lane  *obs.ReaderLane
	slot  int
}

// Register implements RCU.
func (d *DEER) Register() (Reader, error) {
	slot, tbl, err := d.reg.acquire()
	if err != nil {
		return nil, err
	}
	t := *tbl
	for i := range t {
		t[i].time.Store(tsc.Infinity)
	}
	return &deerReader{d: d, table: t, lane: d.lane(slot), slot: slot}, nil
}

// Enter implements Reader (Algorithm 3 lines 3–6). The value is stored to
// support general predicates (§4.3).
func (r *deerReader) Enter(v Value) {
	r.check()
	n := &r.table[hashValue(v)&r.d.mask]
	n.value.Store(v)
	n.time.Store(r.d.clock.Now())
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader (Algorithm 3 lines 7–8).
func (r *deerReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.table[hashValue(v)&r.d.mask].time.Store(tsc.Infinity)
}

// Do implements Reader.
func (r *deerReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *deerReader) Unregister() {
	r.closing()
	for i := range r.table {
		if r.table[i].time.Load() != tsc.Infinity {
			panic("prcu: Unregister inside a read-side critical section")
		}
	}
	r.markClosed()
	r.d.reg.release(r.slot)
	r.table = nil
}

// WaitForReaders implements RCU.
func (d *DEER) WaitForReaders(p Predicate) { d.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers (Algorithm 3 lines
// 9–18), bounded by ctx when it is non-nil. For an enumerable predicate it
// scans, per reader, only the nodes covered values hash to; for a general
// predicate it scans all nodes of each reader's (small) array, evaluating
// P on the posted value, as §4.3 describes. The scan is read-only, so an
// abandoned wait leaves nothing behind.
//
// Per-node waiting uses EER's tests: a node at Infinity, or on a value p
// does not hold for, costs those loads and nothing else — no clock, no
// closure, no session call — and any other goes to awaitSection, which
// stops once time > t0. The pseudo code's lines 16–18 as printed (break on
// t > t0, then break on t != Infinity) would never wait; the per-node
// single-writer argument of Proposition 1 applies verbatim here — a
// pre-existing covered critical section stored t <= t0 in its node, and
// the node's time can only move past t0 via that section's exit or a later
// re-entry, both of which mean the pre-existing section has exited. A node
// found on an uncovered (hash-colliding) value does not block either: any
// covered pre-existing section on it has already exited.
func (d *DEER) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &d.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	d.reg.forEachActive(func(tbl *[]timeNode, slot int) bool {
		s.scanned++
		table := *tbl
		if !p.Enumerable() {
			for i := range table {
				if n := &table[i]; n.time.Load() != tsc.Infinity && p.Holds(n.value.Load()) && !s.awaitSection(d.clock, n, slot, p) {
					return false
				}
			}
			return true
		}
		// ForEach's loop, written out so that it needs no closure.
		var visited uint64 // nodesPer <= 64 covered by one word
		for v, i := p.first, 0; ; v, i = p.next(v), i+1 {
			if idx := hashValue(v) & d.mask; visited&(1<<idx) == 0 {
				visited |= 1 << idx
				if n := &table[idx]; n.time.Load() != tsc.Infinity && p.Holds(n.value.Load()) && !s.awaitSection(d.clock, n, slot, p) {
					return false
				}
			}
			if v == p.last {
				return true
			}
			if i >= maxEnum {
				panic("core: iterable predicate did not reach vk (bad iterator?)")
			}
		}
	})
	return s.end()
}

// stalledReaders implements engine: for each active reader, the covered
// nodes open now (distinct values can occupy distinct nodes of the same
// reader, so a reader may appear more than once).
func (d *DEER) stalledReaders(p Predicate) []StalledReader {
	now := d.clock.Now()
	var out []StalledReader
	d.reg.forEachActive(func(tbl *[]timeNode, slot int) bool {
		for i := range *tbl {
			if n := &(*tbl)[i]; covered(n, now, p) {
				out = append(out, StalledReader{
					Slot: slot, Value: n.value.Load(), HasValue: true, OpenFor: clampDur(now - n.time.Load()),
				})
			}
		}
		return true
	})
	return out
}
