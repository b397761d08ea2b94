package main

import (
	"fmt"

	"prcu"
	"prcu/citrus"
	"prcu/internal/workload"
)

// Pinned keys carry the tree and table workloads' correctness check:
// keys ≡ 0 (mod 16) are stored at set-up and never updated, so every
// lookup of one must hit; keys ≡ 1 (mod 16) are never stored, so every
// lookup of one must miss. A drawn update on a pinned key becomes a
// lookup, which is also what gives tree_write_heavy its reads.
func pinned(k uint64) bool { return k&15 < 2 }

func checkPinned(w *worker, k uint64, found bool) {
	switch k & 15 {
	case 0:
		w.check(found)
	case 1:
		w.check(!found)
	default:
		w.attempted++
	}
}

// treeSpec is one CITRUS workload's shape.
type treeSpec struct {
	flavor prcu.Flavor
	domain func() citrus.Domain
	keys   uint64
	mix    workload.Mix
}

type treeInstance struct {
	spec    treeSpec
	tree    *citrus.Tree
	traced  *tracedRCU
	prefill int
	clients []*treeClient
}

func (s treeSpec) parts() []part { return []part{{flavor: s.flavor, build: s.build}} }

func (s treeSpec) build(p *pass) instance {
	r, tr := decorate(prcu.MustNew(s.flavor, prcu.Options{}), p)
	t := citrus.New(r, s.domain())
	h := t.Handle()
	rng := workload.NewRNG(p.seed)
	var pins []uint64
	for k := uint64(0); k < s.keys; k += 16 {
		pins = append(pins, k)
	}
	for i := len(pins) - 1; i > 0; i-- {
		j := rng.Intn(uint64(i + 1))
		pins[i], pins[j] = pins[j], pins[i]
	}
	for _, k := range pins {
		h.Insert(k, k)
	}
	target := int(s.keys / 2)
	for t.Size() < target {
		if k := rng.Intn(s.keys); !pinned(k) {
			h.Insert(k, k)
		}
	}
	h.Close()
	in := &treeInstance{spec: s, tree: t, traced: tr, prefill: target}
	for w := 0; w < 2; w++ {
		in.clients = append(in.clients, &treeClient{
			h:    t.Handle(),
			rng:  newRNG(p.seed, w+1),
			mix:  s.mix,
			keys: s.keys,
		})
	}
	return in
}

func (in *treeInstance) steppers() []stepper {
	out := make([]stepper, len(in.clients))
	for i, c := range in.clients {
		out[i] = c
	}
	return out
}

func (in *treeInstance) tracer() *tracedRCU { return in.traced }

func (in *treeInstance) finish(res *loopResult) (attempted, failed int64, notes []string) {
	want := in.prefill
	for _, c := range in.clients {
		c.h.Close()
		want += int(c.inserted - c.deleted)
	}
	attempted = 2
	if err := in.tree.Validate(); err != nil {
		failed++
		notes = append(notes, "Validate: "+err.Error())
	}
	if got := in.tree.Size(); got != want {
		failed++
		notes = append(notes, fmt.Sprintf("Size() = %d, want prefill + inserts - deletes = %d", got, want))
	}
	return attempted, failed, notes
}

func (in *treeInstance) layers(res *loopResult, a acct) map[string]float64 {
	m := map[string]float64{
		"citrus.contains_ns": opP50(res, opRead),
		"citrus.insert_ns":   opP50(res, opInsert),
		"citrus.delete_ns":   opP50(res, opDelete),
	}
	if a.ops > 0 {
		m["citrus.self_ns_per_op"] = (a.opNs - float64(a.waitNs) - a.eeNs) / float64(a.ops)
	}
	if d := a.kinds[opDelete]; d > 0 {
		m["citrus.waits_per_1k_deletes"] = 1000 * float64(a.waits) / d
	}
	return m
}

type treeClient struct {
	_                 linePad
	h                 *citrus.Handle
	rng               workload.RNG
	mix               workload.Mix
	keys              uint64
	inserted, deleted int64
	_                 linePad
}

func (c *treeClient) step(w *worker) {
	k := c.rng.Intn(c.keys)
	kind := c.mix.Pick(&c.rng)
	if pinned(k) {
		kind = workload.OpContains
	}
	switch kind {
	case workload.OpContains:
		t0 := w.begin()
		found := c.h.Contains(k)
		w.end(opRead, t0)
		checkPinned(w, k, found)
	case workload.OpInsert:
		t0 := w.begin()
		ok := c.h.Insert(k, k)
		w.end(opInsert, t0)
		w.attempted++
		if ok {
			c.inserted++
		}
	case workload.OpDelete:
		t0 := w.begin()
		ok := c.h.Delete(k)
		w.end(opDelete, t0)
		w.attempted++
		if ok {
			c.deleted++
		}
	}
}
