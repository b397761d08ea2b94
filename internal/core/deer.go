package core

import (
	"context"
	"fmt"
	"unsafe"

	"prcu/internal/obs"
	"prcu/internal/pad"
	"prcu/internal/tsc"
)

// DefaultNodesPerReader is the per-reader node-array size used in the
// paper's evaluation ("we use 16 elements in our DEER-PRCU implementation",
// §4.3).
const DefaultNodesPerReader = 16

// timeNode is the per-reader record of Algorithm 1 (and, replicated per
// value bucket, of Algorithm 3): the value the reader is currently reading
// and the timestamp of its prcu_enter, or tsc.Infinity while quiescent.
// Both fields are padded to their own cache lines: the reader writes them
// on every Enter/Exit while wait-for-readers scans read them, and unrelated
// readers must not false-share.
type timeNode struct {
	value pad.Uint64
	time  pad.Int64
}

// DEER is the timestamp kernel, parameterised by the nodes per reader and
// whether readers post their value (DESIGN.md §5). As NewDEER builds it,
// it is DEER-PRCU (Algorithm 3): EER-PRCU's per-reader, time-based quiescence detection
// combined with D-PRCU's exploitation of the value domain. Each reader owns
// a small array of nodes indexed by h_rcu(v); a wait-for-readers on an
// enumerable predicate touches only the nodes covered values hash to, so a
// reader and a waiter that do not conflict semantically do not conflict at
// the memory level either — the coherence ping-pong fix of §4.3.
//
// As NewEER builds it, it is EER-PRCU (Algorithm 1): wait-for-readers
// Evaluates the predicate for Each Reader and waits only for readers it
// holds for. As NewTimeRCU builds it, it is the paper's Time RCU baseline
// (§6), "EER-PRCU without the predicate evaluation": readers skip the
// value store and waits cover every section. Time RCU separates PRCU's
// gain from predicates from its gain from timestamp-based quiescence
// detection.
//
// Correctness (Proposition 1) transfers as follows: all node accesses are
// sequentially consistent atomics, which subsumes the paper's TSO fences,
// and the clock satisfies the two properties the proof needs, monotonicity
// and cross-thread consistency (see internal/tsc). The default clock is
// tsc.Epoch, which readers load and only a blocked wait advances
// (DESIGN.md §5).
type DEER struct {
	// A reader's slot state is its node table: NodesPerReader consecutive
	// nodes of its registry segment (each timeNode is cache-line padded
	// already).
	base[timeNode]
	clock Clock
	mask  uint64
	// values is false for Time RCU: readers post no value and waits cover
	// every section.
	values bool
	// tick is how a wait takes its t0: the clock's Tick when it has one,
	// its Now otherwise.
	tick func() int64
	// Every Enter reads clock, mask and values. The pad makes the struct
	// exactly two cache lines, a line-aligned size class, so that no
	// neighbouring allocation shares a line with them.
	_ [40]byte
}

// NewEER returns an EER-PRCU engine: the timestamp kernel with one node
// per reader, values on. If clock is nil a fresh tsc.Epoch is used.
func NewEER(clock Clock) *DEER { return newTimestamp("EER-PRCU", 1, true, clock) }

// NewDEER returns a DEER-PRCU engine. nodesPerReader must be a power of
// two no larger than 64, as a wait's visited set is one word; 0 selects
// the paper's default of 16. If clock is nil a fresh tsc.Epoch is used.
func NewDEER(nodesPerReader int, clock Clock) *DEER {
	if nodesPerReader == 0 {
		nodesPerReader = DefaultNodesPerReader
	}
	if nodesPerReader < 1 || nodesPerReader > 64 || nodesPerReader&(nodesPerReader-1) != 0 {
		panic(fmt.Sprintf("prcu: DEER-PRCU nodes per reader must be a power of two no larger than 64, got %d", nodesPerReader))
	}
	return newTimestamp("DEER-PRCU", nodesPerReader, true, clock)
}

// NewTimeRCU returns a Time RCU engine: the timestamp kernel with one node
// per reader, values off. If clock is nil a fresh tsc.Epoch is used.
func NewTimeRCU(clock Clock) *DEER { return newTimestamp("Time RCU", 1, false, clock) }

func newTimestamp(name string, nodesPer int, values bool, clock Clock) *DEER {
	if clock == nil {
		clock = tsc.NewEpoch()
	}
	d := &DEER{
		clock:  clock,
		mask:   uint64(nodesPer - 1),
		values: values,
		tick:   clock.Now,
	}
	if t, ok := clock.(tsc.Ticker); ok {
		d.tick = t.Tick
	}
	d.setup(name, nodesPer, func(n int) []timeNode {
		nodes := make([]timeNode, n)
		for i := range nodes {
			nodes[i].time.Store(tsc.Infinity)
		}
		return nodes
	})
	return d
}

// table returns the node table that starts at first: the registry lays a
// slot's nodes out consecutively in its segment, so the window is rebuilt
// in registers, with no slice header to load per reader.
func (d *DEER) table(first *timeNode) []timeNode { return unsafe.Slice(first, d.mask+1) }

// NodesPerReader returns the per-reader node-array size.
func (d *DEER) NodesPerReader() int { return int(d.mask + 1) }

type stampReader struct {
	readerGuard
	d     *DEER
	table []timeNode
	lane  *obs.ReaderLane
	slot  int
}

// Register implements RCU.
func (d *DEER) Register() (Reader, error) {
	slot, first := d.reg.acquire()
	t := d.table(first)
	for i := range t {
		t[i].time.Store(tsc.Infinity)
	}
	return &stampReader{d: d, table: t, lane: d.lane(slot), slot: slot}, nil
}

// Enter implements Reader (Algorithm 1 lines 3–6, Algorithm 3 lines 3–6).
// The value is stored to support general predicates (§4.3); Time RCU, a
// plain RCU, skips that store. The value store precedes the time store,
// as in Algorithm 1: a waiter that observes the new time is then
// guaranteed to observe the new value (single-writer node, SC atomics).
func (r *stampReader) Enter(v Value) {
	r.check()
	n := r.node(v)
	if r.d.values {
		n.value.Store(v)
	}
	n.time.Store(r.d.clock.Now())
	// Algorithm 1 line 6's TSO fence — ordering the time store before the
	// critical section's reads — is implied by the SC atomic store above.
	if r.lane != nil {
		r.lane.OnEnter()
	}
}

// Exit implements Reader (Algorithm 3 lines 7–8).
func (r *stampReader) Exit(v Value) {
	r.check()
	if r.lane != nil {
		r.lane.OnExit()
	}
	r.node(v).time.Store(tsc.Infinity)
}

// node returns v's node, h_rcu(v) masked; a one-node table (EER, Time
// RCU) skips the hash, which measured 2–3 ns of Time RCU's Enter+Exit.
func (r *stampReader) node(v Value) *timeNode {
	if r.d.mask == 0 {
		return &r.table[0]
	}
	return &r.table[hashValue(v)&r.d.mask]
}

// Do implements Reader.
func (r *stampReader) Do(v Value, fn func()) { DoCritical(r, v, fn) }

// Unregister implements Reader.
func (r *stampReader) Unregister() {
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

// covered is the blocking test of Algorithms 1 and 3: node n holds a
// critical section that began no later than t0 on a value p holds for.
//
// It is evaluated afresh on every poll (rather than the predicate once, as
// the pseudo code shows), which only relaxes waiting: if the reader
// re-entered on a value p does not hold for, its pre-existing critical
// section has necessarily exited — any covered section it held was entered
// with an earlier value (single writer, no nesting).
func covered(n *timeNode, t0 int64, p Predicate) bool {
	return n.time.Load() <= t0 && p.Holds(n.value.Load())
}

// WaitForReaders implements RCU.
func (d *DEER) WaitForReaders(p Predicate) { d.WaitForReadersCtx(nil, p) }

// WaitForReadersCtx implements RCU: wait-for-readers (Algorithm 1 lines
// 9–16, Algorithm 3 lines 9–18), bounded by ctx when it is non-nil. The
// scan is read-only, so concurrent waits proceed without synchronizing
// with each other — the property that makes EER-PRCU waits scale with
// update threads — and a wait abandoned on cancellation leaves nothing
// behind.
//
// Time RCU's waits cover every section (All()); the caller's predicate is
// kept for stall diagnostics. A one-node table (EER, Time RCU) has its
// node tested directly, hashing and enumerating nothing: building its
// one-entry window measured 2–4 ns more per reader. A general predicate
// scans all nodes of each reader's (small) array, evaluating P on the
// posted value, as §4.3 describes. An enumerable predicate scans, per
// reader, only the nodes covered values hash to, and stops enumerating
// once every node has been visited.
//
// Scanning the calling goroutine's own slot is harmless: a correct caller
// is quiescent while waiting, so its own nodes read Infinity and are
// skipped immediately. This removes the paper's "for each thread Tj != Ti"
// bookkeeping without changing behavior.
//
// Algorithm 1 line 10's fence orders the updater's prior writes before the
// scan, not before the clock: it is implied by SC ordering of the atomic
// node loads below against the caller's preceding atomic stores. The scan
// is quiescent-first: a node at Infinity, or inside a section on a value p
// does not hold for, is passed on those loads alone — time before value, as
// in covered: Enter stores them in the opposite order, so a value read
// after a section's time is that section's or a later one's — and the
// clock (line 11) is read by awaitSection, only for a node that is
// neither: no closure, no session call.
//
// Algorithm 3's lines 16–18 as printed (break on t > t0, then break on
// t != Infinity) would never wait; the per-node single-writer argument of
// Proposition 1 applies verbatim here — a pre-existing covered critical
// section stored t <= t0 in its node, and the node's time can only move
// past t0 via that section's exit or a later re-entry, both of which mean
// the pre-existing section has exited. A node found on an uncovered
// (hash-colliding) value does not block either: any covered pre-existing
// section on it has already exited.
func (d *DEER) WaitForReadersCtx(ctx context.Context, p Predicate) error {
	s := waitSession{e: &d.hooks}
	if err := s.begin(ctx, &p); err != nil {
		return err
	}
	if !d.values {
		p = All()
	}
	full := uint64(1)<<(d.mask+1) - 1 // at most 64 nodes: one word; 1<<64 is 0
	d.reg.forEachActive(func(first *timeNode, slot int) bool {
		s.scanned++
		if d.mask == 0 {
			return first.time.Load() == tsc.Infinity || !p.Holds(first.value.Load()) || s.awaitSection(d, first, slot, p)
		}
		table := d.table(first)
		if !p.Enumerable() {
			for i := range table {
				if n := &table[i]; n.time.Load() != tsc.Infinity && p.Holds(n.value.Load()) && !s.awaitSection(d, n, slot, p) {
					return false
				}
			}
			return true
		}
		// ForEach's loop, written out so that it needs no closure.
		var visited uint64
		for v, i := p.first, 0; ; v, i = p.next(v), i+1 {
			if idx := hashValue(v) & d.mask; visited&(1<<idx) == 0 {
				visited |= 1 << idx
				if n := &table[idx]; n.time.Load() != tsc.Infinity && p.Holds(n.value.Load()) && !s.awaitSection(d, n, slot, p) {
					return false
				}
				if visited == full {
					return true
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

// awaitSection is the timestamp kernel's wait for a node found inside a
// section on a value p holds for. The scan tests that inline, from loads
// alone, so this is the only place a wait takes its t0 — once, on the
// first such node; a wait that finds nobody to wait for reads no clock and
// writes nothing. A t0 taken this late is still a valid wait start for
// Proposition 1: a section that preceded the wait read its clock before
// the wait began, hence before this tick, and posted T <= t0 (a later t0
// only widens the set waited for); and a node seen at Infinity after the
// wait began holds no such section, because its own Exit is the only
// store of Infinity. With the epoch clock the tick is also what keeps a
// reader that loops sections from starving the wait: every Enter whose
// load follows the tick posts t0+1. The full argument is in DESIGN.md §5.
// A node still covered at t0 is what the wait blocks on, so the session
// records it for a stall report. With the watchdog armed, the session also
// reads the watchdog clock once, right after the tick: every section
// covered at t0 read its clock no later than the tick, so it has been open
// at least since that reading, whichever node the wait goes on to block on.
func (s *waitSession) awaitSection(d *DEER, n *timeNode, slot int, p Predicate) bool {
	if !s.timed {
		s.t0, s.timed = d.tick(), true
		if s.st != nil {
			s.blockedNs = s.st.cfg.Clock.Now()
		}
	}
	t0 := s.t0
	if !covered(n, t0, p) {
		return true
	}
	s.node, s.hasVal = n, d.values
	return s.await(slot, func() bool { return covered(n, t0, p) })
}
