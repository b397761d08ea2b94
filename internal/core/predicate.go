package core

import "fmt"

// Value is the opaque, algorithm-specific domain value a reader presents to
// prcu_enter/prcu_exit and a predicate is evaluated over. The paper (§3.1)
// envisions "a generic encoding of values (say, 64-bit integers)"; we use
// exactly that.
type Value = uint64

// Clock is a monotonically increasing, cross-thread-consistent time source
// used by the time-based quiescence engines (EER, DEER, Time RCU). It is
// structurally identical to tsc.Clock so any clock from internal/tsc — or a
// caller-supplied source — can be plugged in. Readers call Now; a wait
// takes its t0 with the clock's Tick method when it has one (tsc.Ticker,
// as the default tsc.Epoch does), and with Now otherwise.
type Clock interface {
	Now() int64
}

// PredicateKind discriminates the encodings a Predicate can carry (§3.1
// "Encoding predicates" and "Specialized predicates").
type PredicateKind uint8

const (
	// KindAll is the wildcard predicate: holds for every value. It is the
	// "RCU fallback" of §3.1 — a wait with KindAll waits for all readers.
	KindAll PredicateKind = iota
	// KindFunc is a general predicate encoded as a function.
	KindFunc
	// KindSingleton holds for exactly one value, encoded as that value.
	KindSingleton
	// KindIterable holds over {v1, next(v1), ..., vk}, encoded as
	// (v1, vk, next). A singleton is an iterable predicate with k = 1; we
	// distinguish them as the paper does, for clarity and fast paths.
	KindIterable
)

// maxEnum bounds predicate enumeration so a buggy iterator that never
// reaches vk panics instead of hanging a wait-for-readers forever.
const maxEnum = 1 << 22

// Predicate identifies which read-side critical sections a
// wait-for-readers(P) must wait for: those on values v with P(v) = 1.
//
// The zero value is the wildcard predicate (plain RCU semantics).
type Predicate struct {
	kind        PredicateKind
	fn          func(Value) bool
	first, last Value
	next        func(Value) Value
	// unitStep marks the canonical +1 iterator produced by Interval, which
	// lets Holds answer range membership in O(1) on wait-loop hot paths.
	unitStep bool
}

// All returns the wildcard predicate, which holds for every value.
func All() Predicate { return Predicate{kind: KindAll} }

// Func returns a general predicate encoded as fn. fn must be side-effect
// free; a wait-for-readers may invoke it any number of times (§3.1).
func Func(fn func(Value) bool) Predicate {
	if fn == nil {
		panic("core: Func predicate with nil function")
	}
	return Predicate{kind: KindFunc, fn: fn}
}

// Singleton returns the specialized predicate that holds only for v.
func Singleton(v Value) Predicate {
	return Predicate{kind: KindSingleton, first: v, last: v}
}

// Iterable returns the specialized predicate holding over
// {v1, next(v1), ..., vk}. next must eventually reach vk from v1.
func Iterable(v1, vk Value, next func(Value) Value) Predicate {
	if next == nil {
		panic("core: Iterable predicate with nil iterator")
	}
	return Predicate{kind: KindIterable, first: v1, last: vk, next: next}
}

// Interval returns an iterable predicate over the inclusive integer range
// [lo, hi]. It is the common case for key-space predicates such as CITRUS's
// P(x) = k < x <= k' (§5.2).
func Interval(lo, hi Value) Predicate {
	if lo > hi {
		panic("core: Interval predicate with lo > hi")
	}
	if lo == hi {
		return Singleton(lo)
	}
	return Predicate{kind: KindIterable, first: lo, last: hi, next: incValue, unitStep: true}
}

func incValue(v Value) Value { return v + 1 }

// Kind reports the predicate's encoding.
func (p Predicate) Kind() PredicateKind { return p.kind }

// String describes the predicate for diagnostics (stall reports, traces).
// General predicates are opaque functions, so their description carries
// no value information.
func (p Predicate) String() string {
	switch p.kind {
	case KindAll:
		return "all"
	case KindFunc:
		return "func"
	case KindSingleton:
		return fmt.Sprintf("singleton(%d)", p.first)
	case KindIterable:
		if p.unitStep {
			return fmt.Sprintf("interval[%d,%d]", p.first, p.last)
		}
		return fmt.Sprintf("iterable(%d..%d)", p.first, p.last)
	default:
		return "invalid"
	}
}

// Enumerable reports whether the engine can iterate the values the
// predicate holds for (singleton or iterable). D-PRCU exploits enumerable
// predicates for O(|P⁻¹|) waits and falls back to a full-table drain for
// general ones (§4.2).
func (p Predicate) Enumerable() bool {
	return p.kind == KindSingleton || p.kind == KindIterable
}

// Holds reports whether P(v) = 1. For an iterable predicate without an
// attached membership function this enumerates the set, so engines on hot
// paths should prefer ForEach or interval bounds when applicable.
func (p Predicate) Holds(v Value) bool {
	switch p.kind {
	case KindAll:
		return true
	case KindFunc:
		return p.fn(v)
	case KindSingleton:
		return v == p.first
	case KindIterable:
		if p.unitStep {
			return p.first <= v && v <= p.last
		}
		holds := false
		p.ForEach(func(u Value) bool {
			if u == v {
				holds = true
				return false
			}
			return true
		})
		return holds
	default:
		panic("core: invalid predicate kind")
	}
}

// Span reports the inclusive contiguous value range [lo, hi] the
// predicate covers: ok is true exactly for Singleton and Interval
// predicates, whose covered set is a dense integer range. Iterables with
// custom step functions, Func and All report ok = false — their covered
// set is not (knowably) one contiguous range. Batching layers use Span to
// merge adjacent predicates into a single covering wait.
func (p Predicate) Span() (lo, hi Value, ok bool) {
	if p.kind == KindSingleton {
		return p.first, p.first, true
	}
	if p.kind == KindIterable && p.unitStep {
		return p.first, p.last, true
	}
	return 0, 0, false
}

// ForEach enumerates the values the predicate holds for, in iteration
// order, calling yield for each. Enumeration stops early if yield returns
// false. It reports whether the predicate was enumerable.
//
// ForEach panics if the iterator fails to reach vk within a large bound —
// a buggy iterator must not silently hang wait-for-readers.
func (p Predicate) ForEach(yield func(Value) bool) bool {
	switch p.kind {
	case KindSingleton:
		yield(p.first)
		return true
	case KindIterable:
		v := p.first
		for i := 0; ; i++ {
			if i > maxEnum {
				panic("core: iterable predicate did not reach vk (bad iterator?)")
			}
			if !yield(v) {
				return true
			}
			if v == p.last {
				return true
			}
			v = p.next(v)
		}
	default:
		return false
	}
}

// Count returns the number of values an enumerable predicate holds for,
// and ok = false for non-enumerable predicates.
func (p Predicate) Count() (n int, ok bool) {
	if p.kind == KindSingleton {
		return 1, true
	}
	if p.kind != KindIterable {
		return 0, false
	}
	if p.unitStep {
		return int(p.last-p.first) + 1, true
	}
	p.ForEach(func(Value) bool { n++; return true })
	return n, true
}
