package hashtable

import (
	"testing"

	"prcu"
)

// FuzzHashtableResize model-checks the resizable table against a plain
// map under a fuzzed operation stream that interleaves expansions with
// updates and lookups. Expansion is the delicate path — bucket aliasing
// followed by chain unzipping, with a WaitForReaders before every
// pointer change — so the fuzzer hunts for op orders that corrupt
// chains or lose keys across a split.
func FuzzHashtableResize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x40, 0x00, 0x41, 0x01, 0xC0, 0x80, 0x00, 0xC1})
	f.Add([]byte{
		0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, // inserts
		0xC0,                   // expand
		0x80, 0x81, 0x42, 0x43, // gets, deletes
		0xC1,       // expand
		0x00, 0x44, // reinsert, delete
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		m := NewModulo(prcu.NewEER(prcu.Options{}), 2)
		h, err := m.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		model := map[uint64]uint64{}

		expands := 0
		for i, op := range ops {
			// Top two bits select the operation, the rest the key, so a
			// byte stream explores dense key collisions across splits.
			k := uint64(op & 0x3f)
			switch op >> 6 {
			case 0: // insert
				v := uint64(i)
				_, existed := model[k]
				if got := m.Insert(k, v); got == existed {
					t.Fatalf("op %d: Insert(%d) = %v, model says existed=%v", i, k, got, existed)
				}
				if !existed {
					model[k] = v
				}
			case 1: // delete
				_, existed := model[k]
				if got := m.Delete(k); got != existed {
					t.Fatalf("op %d: Delete(%d) = %v, model says %v", i, k, got, existed)
				}
				delete(model, k)
			case 2: // get
				want, existed := model[k]
				got, ok := h.Get(k)
				if ok != existed || (ok && got != want) {
					t.Fatalf("op %d: Get(%d) = %d,%v, model says %d,%v", i, k, got, ok, want, existed)
				}
			default: // expand (bounded so tables stay small)
				if expands < 6 {
					before := m.Buckets()
					m.Expand()
					if m.Buckets() != before*2 {
						t.Fatalf("op %d: Expand %d -> %d buckets, want doubling", i, before, m.Buckets())
					}
					expands++
				}
			}
		}

		// Post-conditions: every model key resolves, size agrees, and no
		// phantom keys survive in the table.
		for k, want := range model {
			if got, ok := h.Get(k); !ok || got != want {
				t.Fatalf("final: Get(%d) = %d,%v, model says %d,true", k, got, ok, want)
			}
		}
		if m.Size() != len(model) {
			t.Fatalf("final: Size() = %d, model has %d keys", m.Size(), len(model))
		}
		for k := uint64(0); k < 64; k++ {
			if _, existed := model[k]; !existed {
				if _, ok := h.Get(k); ok {
					t.Fatalf("final: phantom key %d present after ops", k)
				}
			}
		}
	})
}
