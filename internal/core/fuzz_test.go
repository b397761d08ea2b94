package core

import "testing"

// FuzzPredicate cross-checks the three predicate encodings against
// plain arithmetic: interval membership, enumeration order and count,
// iterable stride semantics — and drives a D-PRCU wait with the fuzzed
// predicate over a one-node table, where index dedup must collapse every
// covered value into exactly one drain.
func FuzzPredicate(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), byte(1))
	f.Add(uint64(10), uint64(20), uint64(15), byte(3))
	f.Add(uint64(100), uint64(5), uint64(100), byte(0)) // lo > hi: swapped below
	f.Add(uint64(1)<<63, uint64(1)<<63+100, uint64(1)<<63+7, byte(6))
	f.Add(^uint64(0)-5, ^uint64(0), ^uint64(0), byte(2))
	f.Fuzz(func(t *testing.T, lo, hi, probe uint64, stride byte) {
		if lo > hi {
			lo, hi = hi, lo
		}
		// Bound enumeration width so the fuzzer explores shapes, not time.
		if hi-lo > 2048 {
			hi = lo + (hi-lo)%2048
		}

		p := Interval(lo, hi)
		inRange := lo <= probe && probe <= hi
		if p.Holds(probe) != inRange {
			t.Fatalf("Interval(%d,%d).Holds(%d) = %v, arithmetic says %v",
				lo, hi, probe, p.Holds(probe), inRange)
		}
		if !p.Enumerable() {
			t.Fatalf("Interval(%d,%d) not enumerable", lo, hi)
		}
		want := int(hi-lo) + 1
		if n, ok := p.Count(); !ok || n != want {
			t.Fatalf("Interval(%d,%d).Count() = %d,%v, want %d", lo, hi, n, ok, want)
		}
		var enum int
		prev, first := Value(0), true
		p.ForEach(func(v Value) bool {
			if v < lo || v > hi {
				t.Fatalf("ForEach yielded %d outside [%d,%d]", v, lo, hi)
			}
			if !first && v != prev+1 {
				t.Fatalf("ForEach yielded %d after %d, want ascending unit steps", v, prev)
			}
			prev, first = v, false
			enum++
			return true
		})
		if enum != want {
			t.Fatalf("ForEach yielded %d values, want %d", enum, want)
		}

		s := Singleton(probe)
		if !s.Holds(probe) || s.Holds(probe+1) || s.Holds(probe-1) {
			t.Fatalf("Singleton(%d) membership wrong", probe)
		}
		if n, ok := s.Count(); !ok || n != 1 {
			t.Fatalf("Singleton(%d).Count() = %d,%v", probe, n, ok)
		}

		// Iterable with a fuzzed stride: {lo, lo+step, ..., lo+k*step}.
		step := uint64(stride%7) + 1
		k := (hi - lo) / step
		vk := lo + k*step
		it := Iterable(lo, vk, func(v Value) Value { return v + step })
		if n, ok := it.Count(); !ok || n != int(k)+1 {
			t.Fatalf("Iterable stride %d over [%d,%d]: Count = %d,%v, want %d",
				step, lo, vk, n, ok, k+1)
		}
		if !it.Holds(lo) || !it.Holds(vk) {
			t.Fatalf("Iterable must hold for its endpoints %d, %d", lo, vk)
		}
		if step > 1 && k > 0 && it.Holds(lo+1) {
			t.Fatalf("Iterable stride %d holds for off-stride value %d", step, lo+1)
		}

		// A wait with the fuzzed interval over a one-node D-PRCU table:
		// every covered value collides, so dedup must produce exactly one
		// gate drain, and the wait must terminate.
		d := NewD(1)
		d.SetOptimisticBudget(0)
		n0 := &d.tbl.Load().nodes[0]
		before := n0.drains.Load()
		d.WaitForReaders(p)
		if got := n0.drains.Load() - before; got != 1 {
			t.Fatalf("one-node table drained %d times for %d colliding values, want 1", got, want)
		}
	})
}
