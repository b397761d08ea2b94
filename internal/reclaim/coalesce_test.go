package reclaim

import (
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/core"
)

// covers asserts that g's predicate holds everywhere each member
// callback's predicate holds — the coalescer's one correctness
// obligation (never under-cover).
func covers(t *testing.T, batch []callback, g waitGroup) {
	t.Helper()
	for _, ci := range g.cbs {
		member := batch[ci].pred
		if member.Kind() == core.KindAll {
			if g.pred.Kind() != core.KindAll {
				t.Fatalf("group %s cannot cover member %s", g.pred, member)
			}
			continue
		}
		if ok := member.ForEach(func(v core.Value) bool {
			if !g.pred.Holds(v) {
				t.Fatalf("group %s does not cover value %d of member %s", g.pred, v, member)
			}
			return true
		}); !ok {
			// Non-enumerable member (Func): probe the union by sampling is
			// not possible generically; the construction (disjunction over
			// members) covers by definition, so just require a Func group.
			if g.pred.Kind() != core.KindFunc && g.pred.Kind() != core.KindAll {
				t.Fatalf("opaque member in non-union group %s", g.pred)
			}
		}
	}
}

func checkPartition(t *testing.T, batch []callback, groups []waitGroup) {
	t.Helper()
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, ci := range g.cbs {
			if seen[ci] {
				t.Fatalf("callback %d in two groups", ci)
			}
			seen[ci] = true
		}
		covers(t, batch, g)
	}
	if len(seen) != len(batch) {
		t.Fatalf("partition covers %d of %d callbacks", len(seen), len(batch))
	}
}

func TestCoalesceMergesAdjacentAndOverlappingSpans(t *testing.T) {
	batch := []callback{
		{pred: core.Singleton(1)},
		{pred: core.Singleton(2)},     // adjacent to 1
		{pred: core.Interval(10, 20)}, // separate run
		{pred: core.Interval(15, 30)}, // overlaps [10,20]
		{pred: core.Interval(31, 40)}, // adjacent to [15,30]
		{pred: core.Singleton(100)},   // isolated
	}
	groups := coalesce(batch)
	checkPartition(t, batch, groups)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3 ([1,2], [10,40], [100]); groups: %v", len(groups), preds(groups))
	}
}

func TestCoalesceAllSwallowsEverything(t *testing.T) {
	batch := []callback{
		{pred: core.Singleton(1)},
		{pred: core.All()},
		{pred: core.Interval(5, 9)},
		{pred: core.Func(func(v core.Value) bool { return v%2 == 0 })},
	}
	groups := coalesce(batch)
	checkPartition(t, batch, groups)
	if len(groups) != 1 || groups[0].pred.Kind() != core.KindAll {
		t.Fatalf("wildcard member must fold the whole batch into one All wait; got %v", preds(groups))
	}
}

func TestCoalesceOpaquePredicatesFormOneUnion(t *testing.T) {
	even := core.Func(func(v core.Value) bool { return v%2 == 0 })
	big := core.Func(func(v core.Value) bool { return v > 1000 })
	batch := []callback{{pred: even}, {pred: big}}
	groups := coalesce(batch)
	checkPartition(t, batch, groups)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1 union", len(groups))
	}
	u := groups[0].pred
	for _, tc := range []struct {
		v    core.Value
		want bool
	}{{4, true}, {2002, true}, {1001, true}, {7, false}} {
		if got := u.Holds(tc.v); got != tc.want {
			t.Fatalf("union(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestCoalesceSpanOverflowBoundary(t *testing.T) {
	maxV := ^core.Value(0)
	batch := []callback{
		{pred: core.Interval(maxV-5, maxV)}, // hi+1 would overflow
		{pred: core.Singleton(maxV)},
		{pred: core.Singleton(0)},
	}
	groups := coalesce(batch)
	checkPartition(t, batch, groups)
}

func preds(groups []waitGroup) []string {
	out := make([]string, len(groups))
	for i, g := range groups {
		out[i] = g.pred.String()
	}
	return out
}

// FuzzReclaim drives a single-shard reclaimer with a fuzzer-chosen
// mix of predicates, byte declarations and control operations, checking
// the invariants that must hold on every schedule: each accepted
// callback resolves exactly once, the ledger balances, and shutdown
// terminates.
func FuzzReclaim(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(4), false)
	f.Add(uint64(42), uint8(64), uint8(0), true)
	f.Add(uint64(0xdead), uint8(3), uint8(255), false)
	f.Add(uint64(7), uint8(100), uint8(31), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, mask uint8, inline bool) {
		pol := PolicyBlock
		if inline {
			pol = PolicyInline
		}
		r := New(core.NewTimeRCU(nil), Config{
			Shards:     1,
			MaxPending: int(mask%32) + 1,
			Policy:     pol,
			FlushDelay: -1,
		})
		var freed atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			s := seed
			for i := 0; i < int(n); i++ {
				s = s*6364136223846793005 + 1442695040888963407
				var p core.Predicate
				switch s % 4 {
				case 0:
					p = core.All()
				case 1:
					p = core.Singleton(core.Value(s >> 32))
				case 2:
					lo := core.Value(s>>32) % 1024
					p = core.Interval(lo, lo+core.Value(s%64))
				default:
					lo := core.Value(s % 7)
					p = core.Func(func(v core.Value) bool { return v%7 == lo })
				}
				r.Retire(nil, p, int(s%1024), func(any) { freed.Add(1) })
				if s%13 == 0 {
					r.Flush()
				}
				if s%29 == 0 {
					r.Barrier()
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("fuzz driver wedged")
		}
		r.Barrier()
		r.Close()
		if got := freed.Load(); got != int64(n) {
			t.Fatalf("freed %d of %d retirements", got, n)
		}
		if p := r.Pending(); p != 0 {
			t.Fatalf("Pending = %d after Close", p)
		}
	})
}
