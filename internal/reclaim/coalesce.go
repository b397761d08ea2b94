package reclaim

import (
	"sort"

	"prcu/internal/core"
)

// waitGroup is one grace period covering a set of batch members: wait on
// pred, then resolve every callback in cbs (indices into the batch).
type waitGroup struct {
	pred core.Predicate
	cbs  []int
}

// coalesce partitions a flush batch into the fewest grace periods that
// still cover every member's predicate.
//
// Correctness rests on the paper's over-covering direction (§3.1): a
// wait on predicate P completes callback cb iff P holds everywhere
// cb.pred does — the wait then blocks on a superset of the readers cb
// must outlive — and the merged wait starts strictly after every member
// was submitted, so it observes at least the critical sections each
// member's own wait would have. Under-covering is never produced: groups
// are built only by union.
//
// The partition:
//
//   - If any member carries the wildcard predicate, one All wait covers
//     every member — the classic RCU batching limit case.
//   - Singleton/Interval predicates (dense ranges, via Span) sort and
//     merge: overlapping or adjacent ranges fuse into one covering
//     Interval. Retirement storms against a key range — the CITRUS
//     delete pattern — collapse into a handful of waits.
//   - Everything else (Func, custom-step iterables) fuses into a single
//     disjunction: one Func wait holding wherever any member holds.
//     These cannot be compared or merged structurally, but one wait over
//     their union is still exactly as selective as the members combined.
func coalesce(batch []callback) []waitGroup {
	if len(batch) == 1 {
		return []waitGroup{{pred: batch[0].pred, cbs: []int{0}}}
	}
	var groups []waitGroup
	var spans []spanEntry
	var opaque []int // Func / custom-step iterables
	allGroup := -1   // index in groups of the wildcard group, if any

	for i := range batch {
		cb := &batch[i]
		if cb.pred.Kind() == core.KindAll {
			if allGroup < 0 {
				allGroup = len(groups)
				groups = append(groups, waitGroup{pred: core.All()})
			}
			groups[allGroup].cbs = append(groups[allGroup].cbs, i)
			continue
		}
		if lo, hi, ok := cb.pred.Span(); ok {
			spans = append(spans, spanEntry{lo: lo, hi: hi, idx: i})
			continue
		}
		opaque = append(opaque, i)
	}

	if allGroup >= 0 {
		// The wildcard wait covers every predicate; fold the rest of the
		// batch into it rather than waiting again.
		g := &groups[allGroup]
		for _, e := range spans {
			g.cbs = append(g.cbs, e.idx)
		}
		g.cbs = append(g.cbs, opaque...)
		return groups
	}

	groups = append(groups, mergeSpans(spans)...)

	if len(opaque) == 1 {
		i := opaque[0]
		groups = append(groups, waitGroup{pred: batch[i].pred, cbs: []int{i}})
	} else if len(opaque) > 1 {
		// The union reads the members' predicates in place: it is evaluated
		// only by this group's wait, which ends before the batch is cleared.
		union := core.Func(func(v core.Value) bool {
			for _, i := range opaque {
				if batch[i].pred.Holds(v) {
					return true
				}
			}
			return false
		})
		groups = append(groups, waitGroup{pred: union, cbs: opaque})
	}
	return groups
}

// spanEntry is one dense-range predicate awaiting merging.
type spanEntry struct {
	lo, hi core.Value
	idx    int
}

// mergeSpans sorts dense ranges by lower bound and fuses every
// overlapping-or-adjacent run into one covering Interval group.
func mergeSpans(spans []spanEntry) []waitGroup {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	var out []waitGroup
	lo, hi := spans[0].lo, spans[0].hi
	cbs := []int{spans[0].idx}
	flush := func() {
		out = append(out, waitGroup{pred: core.Interval(lo, hi), cbs: cbs})
	}
	const maxVal = ^core.Value(0)
	for _, e := range spans[1:] {
		// Adjacent counts as mergeable: [2,4] and [5,9] cover the dense
		// range [2,9] with no value in between. Guard hi+1 overflow.
		if hi == maxVal || e.lo <= hi+1 {
			if e.hi > hi {
				hi = e.hi
			}
			cbs = append(cbs, e.idx)
			continue
		}
		flush()
		lo, hi = e.lo, e.hi
		cbs = []int{e.idx}
	}
	flush()
	return out
}
