package hashtable

import (
	"testing"

	"prcu"
)

// TestSingleBucketExpansion starts from one bucket, the degenerate case
// where the whole table is one chain and every expansion unzips it.
func TestSingleBucketExpansion(t *testing.T) {
	m := NewModulo(prcu.NewD(prcu.Options{}), 1)
	h := mustHandle(t, m)
	defer h.Close()
	const n = 64
	for k := uint64(0); k < n; k++ {
		m.Insert(k, k+1)
	}
	for i := 0; i < 6; i++ { // 1 -> 64 buckets
		m.Expand()
		for k := uint64(0); k < n; k++ {
			if v, ok := h.Get(k); !ok || v != k+1 {
				t.Fatalf("expansion %d: Get(%d) = %d,%v", i, k, v, ok)
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("expansion %d: %v", i, err)
		}
	}
	if m.Buckets() != 64 {
		t.Fatalf("Buckets = %d, want 64", m.Buckets())
	}
}

// TestExpandEmptyTable must be a no-op beyond doubling the array.
func TestExpandEmptyTable(t *testing.T) {
	m := NewModulo(prcu.NewTimeRCU(prcu.Options{}), 4)
	m.Expand()
	if m.Buckets() != 8 || m.Size() != 0 {
		t.Fatalf("Buckets=%d Size=%d", m.Buckets(), m.Size())
	}
	if m.ExpansionWaits() != 0 {
		t.Fatalf("empty expansion issued %d waits, want 0", m.ExpansionWaits())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUnzipWaitsOncePerRunBoundary scripts old chains as runs of the two
// destinations and pins the expansion's waits: one per cut, and a chain
// of k runs needs k-1 cuts, whichever destination it starts with and
// however long its runs are.
func TestUnzipWaitsOncePerRunBoundary(t *testing.T) {
	for _, c := range []struct {
		dests string // destination parity of each node, head first: 0 or 2 mod 4
		waits int64
	}{
		{"0", 0}, {"0000", 0}, {"2222", 0}, {"02", 1}, {"20", 1},
		{"0022200", 2}, {"2002", 2}, {"02020202", 7}, {"00200022202", 5},
	} {
		m := NewModulo(prcu.NewEER(prcu.Options{}), 2)
		// Inserts push at the head: insert the chain tail first. Keys are
		// even, all in bucket 0 of the 2-bucket table.
		for i := len(c.dests) - 1; i >= 0; i-- {
			k := uint64(4*i) + uint64(c.dests[i]-'0')
			m.Insert(k, k)
		}
		m.Expand()
		if got := m.ExpansionWaits(); got != c.waits {
			t.Errorf("chain %s: %d waits, want %d", c.dests, got, c.waits)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("chain %s: %v", c.dests, err)
		}
		if m.Size() != len(c.dests) {
			t.Errorf("chain %s: Size %d, want %d", c.dests, m.Size(), len(c.dests))
		}
	}
}

// TestAlternatingRunsUnzip builds a chain that strictly alternates
// destinations — the worst case for unzip (one wait per node).
func TestAlternatingRunsUnzip(t *testing.T) {
	m := NewModulo(prcu.NewEER(prcu.Options{}), 2)
	h := mustHandle(t, m)
	defer h.Close()
	// All keys in bucket 0 of a 2-bucket table (even keys), alternating
	// destination parity for a 4-bucket table: keys 0,2 mod 4 alternate.
	keys := []uint64{0, 2, 4, 6, 8, 10, 12, 14}
	for _, k := range keys {
		m.Insert(k, k)
	}
	waitsBefore := m.ExpansionWaits()
	m.Expand()
	if m.ExpansionWaits() == waitsBefore {
		t.Fatal("alternating chain expansion issued no waits")
	}
	for _, k := range keys {
		if !h.Contains(k) {
			t.Fatalf("key %d lost in worst-case unzip", k)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValueUpdateVisibility: Delete+Insert of the same key must expose
// the new value to handles.
func TestValueUpdateVisibility(t *testing.T) {
	m := NewModulo(prcu.NewDEER(prcu.Options{}), 8)
	h := mustHandle(t, m)
	defer h.Close()
	m.Insert(5, 1)
	m.Delete(5)
	m.Insert(5, 2)
	if v, ok := h.Get(5); !ok || v != 2 {
		t.Fatalf("Get(5) = %d,%v, want 2,true", v, ok)
	}
}

// TestManyExpansionsKeepWaitPredicatesPaired: every expansion wait covers
// exactly a bucket pair; after many expansions over all engines the
// table must still satisfy all invariants.
func TestManyExpansionsAllEngines(t *testing.T) {
	for name, mk := range mapVariants(2) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			for k := uint64(0); k < 100; k++ {
				m.Insert(k*3, k)
			}
			for i := 0; i < 7; i++ {
				m.Expand()
			}
			if m.Buckets() != 256 {
				t.Fatalf("Buckets = %d", m.Buckets())
			}
			h := mustHandle(t, m)
			defer h.Close()
			for k := uint64(0); k < 100; k++ {
				if v, ok := h.Get(k * 3); !ok || v != k {
					t.Fatalf("Get(%d) = %d,%v", k*3, v, ok)
				}
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
