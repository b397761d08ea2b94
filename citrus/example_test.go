package citrus_test

import (
	"fmt"

	"prcu"
	"prcu/citrus"
)

// Build a CITRUS tree over D-PRCU with the paper's compressed key domain,
// and run the basic operations through a handle.
func Example() {
	engine := prcu.NewD(prcu.Options{})
	tree := citrus.New(engine, citrus.CompressedDomain(1024))

	h, err := tree.NewHandle()
	if err != nil {
		panic(err)
	}
	defer h.Close()

	h.Insert(10, 100)
	h.Insert(20, 200)
	h.Insert(30, 300)
	h.Delete(20) // internal node: copy-successor + targeted WaitForReaders

	fmt.Println(h.Contains(10), h.Contains(20), h.Contains(30))
	v, ok := h.Get(30)
	fmt.Println(v, ok)
	fmt.Println(tree.Size())
	// Output:
	// true false true
	// 300 true
	// 2
}

// DefaultDomain picks the right key-to-value mapping for each engine
// flavor, so generic code can stay engine agnostic.
func ExampleDefaultDomain() {
	for _, f := range []prcu.Flavor{prcu.FlavorEER, prcu.FlavorD, prcu.FlavorTime} {
		engine := prcu.MustNew(f, prcu.Options{})
		tree := citrus.New(engine, citrus.DefaultDomain(f))
		h, err := tree.NewHandle()
		if err != nil {
			panic(err)
		}
		h.Insert(1, 1)
		fmt.Println(engine.Name(), h.Contains(1))
		h.Close()
	}
	// Output:
	// EER-PRCU true
	// D-PRCU true
	// Time RCU true
}
