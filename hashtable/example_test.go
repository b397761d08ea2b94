package hashtable_test

import (
	"fmt"

	"prcu"
	"prcu/hashtable"
)

// Build the resizable hash table over D-PRCU, expand it, and observe that
// contents and bucket structure survive.
func Example() {
	engine := prcu.NewD(prcu.Options{})
	m := hashtable.NewModulo(engine, 4)

	for k := uint64(0); k < 16; k++ {
		m.Insert(k, k*k)
	}
	fmt.Println("buckets:", m.Buckets(), "load:", m.LoadFactor())

	m.Expand() // doubles the table; waits cover only split bucket pairs

	h, err := m.NewHandle()
	if err != nil {
		panic(err)
	}
	defer h.Close()
	v, ok := h.Get(9)
	fmt.Println("buckets:", m.Buckets(), "Get(9):", v, ok)
	// Output:
	// buckets: 4 load: 4
	// buckets: 8 Get(9): 81 true
}
