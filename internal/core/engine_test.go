package core

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"prcu/internal/pad"
	"prcu/internal/tsc"
)

func TestEnterExitCycle(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				v := Value(i % 7)
				rd.Enter(v)
				rd.Exit(v)
			}
			r.WaitForReaders(All())
			rd.Unregister()
		})
	}
}

func TestWaitWithNoReaders(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			// Must return immediately with nobody registered.
			r.WaitForReaders(All())
			r.WaitForReaders(Singleton(5))
		})
	}
}

func TestWaitWithQuiescentReaders(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, _ := r.Register()
			rd.Enter(1)
			rd.Exit(1)
			// Reader registered but quiescent: wait must not block.
			r.WaitForReaders(All())
			rd.Unregister()
		})
	}
}

func TestNames(t *testing.T) {
	want := map[string]string{
		"EER": "EER-PRCU", "D": "D-PRCU", "DEER": "DEER-PRCU",
		"Time": "Time RCU", "URCU": "URCU", "Tree": "Tree RCU",
		"Dist": "Dist RCU", "SRCU": "SRCU", "Packed": "Packed RCU",
	}
	for name, mk := range engines() {
		if got := mk().Name(); got != want[name] {
			t.Errorf("%s Name() = %q, want %q", name, got, want[name])
		}
	}
}

func TestDPRCUTableSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two table size must panic")
		}
	}()
	NewD(100)
}

func TestDPRCUDefaultTableSize(t *testing.T) {
	d := NewD(0)
	if d.TableSize() != DefaultCounterTableSize {
		t.Fatalf("TableSize = %d, want %d", d.TableSize(), DefaultCounterTableSize)
	}
}

func TestDPRCUNestingPanics(t *testing.T) {
	d := NewD(64)
	rd, _ := d.Register()
	rd.Enter(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Enter must panic")
		}
		rd.Exit(1)
	}()
	rd.Enter(2)
}

func TestDPRCUExitWithoutEnterPanics(t *testing.T) {
	d := NewD(64)
	rd, _ := d.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("Exit without Enter must panic")
		}
	}()
	rd.Exit(1)
}

func TestDPRCUMismatchedExitPanics(t *testing.T) {
	d := NewD(64)
	rd, _ := d.Register()
	rd.Enter(1)
	// Find a value mapping to a different table node than 1.
	tbl := d.tbl.Load()
	other := Value(2)
	for tbl.index(other) == tbl.index(1) {
		other++
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Exit with a different-node value must panic")
		}
	}()
	rd.Exit(other)
}

func TestDPRCUCountersReturnToZero(t *testing.T) {
	d := NewD(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rd, err := d.Register()
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 2000; j++ {
				v := Value(id*37 + j)
				rd.Enter(v)
				rd.Exit(v)
			}
			rd.Unregister()
		}(i)
	}
	wg.Wait()
	tbl := d.tbl.Load()
	for j := range tbl.nodes {
		if c0, c1 := tbl.nodes[j].readers[0].Load(), tbl.nodes[j].readers[1].Load(); c0 != 0 || c1 != 0 {
			t.Fatalf("node %d counters = %d,%d after all readers exited, want 0,0", j, c0, c1)
		}
	}
}

// TestDPRCUResize exercises §4.2's table expansion: contents of critical
// sections spanning the swap stay covered, the new size takes effect, and
// the old generation fully drains.
func TestDPRCUResize(t *testing.T) {
	d := NewD(64)
	rd, _ := d.Register()
	rd.Enter(5)
	resized := make(chan struct{})
	go func() {
		d.Resize(256)
		close(resized)
	}()
	// Resize must block on the old generation while our section is open.
	select {
	case <-resized:
		t.Fatal("Resize completed while a reader held the old table")
	case <-time.After(30 * time.Millisecond):
	}
	rd.Exit(5)
	select {
	case <-resized:
	case <-time.After(10 * time.Second):
		t.Fatal("Resize did not complete after the reader exited")
	}
	if d.TableSize() != 256 {
		t.Fatalf("TableSize = %d after resize, want 256", d.TableSize())
	}
	// The engine keeps satisfying the safety property after the swap.
	rd.Enter(9)
	done := make(chan struct{})
	go func() {
		d.WaitForReaders(Singleton(9))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("wait returned during open section after resize")
	case <-time.After(30 * time.Millisecond):
	}
	rd.Exit(9)
	<-done
	// Resizing to the current size is a no-op.
	d.Resize(256)
	rd.Unregister()
}

// TestDPRCUResizeUnderChurn resizes repeatedly while readers and waiters
// run; the safety harness invariant must hold throughout.
func TestDPRCUResizeUnderChurn(t *testing.T) {
	d := NewD(16)
	h := newSafetyHarness(d, 8)
	for i := 0; i < 8; i++ {
		id := i
		h.runReader(t, id, func(i int) Value { return Value((id*13 + i) % 64) })
	}
	for i := 0; i < 2; i++ {
		h.runWaiter(t, Interval(8, 24), 200)
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sizes := []int{32, 64, 16, 128, 16}
		for _, s := range sizes {
			if h.stop.Load() {
				return
			}
			d.Resize(s)
		}
	}()
	h.finish(t, 300*time.Millisecond)
}

func TestDPRCUGateDrainUnderForcedSlowPath(t *testing.T) {
	// Force the full gate protocol by keeping one phase occupied past the
	// optimistic budget, then verify the drain completes once released.
	d := NewD(1)
	rd, _ := d.Register()
	rd.Enter(5)
	done := make(chan struct{})
	go func() {
		d.WaitForReaders(Singleton(5))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("drain returned while a reader held the counter")
	default:
	}
	// Give the waiter time to fall off the optimistic path.
	for i := 0; i < 1000; i++ {
		select {
		case <-done:
			t.Fatal("drain returned while a reader held the counter")
		default:
		}
	}
	rd.Exit(5)
	<-done
	rd.Unregister()
}

func TestDEERNodesPerReaderValidation(t *testing.T) {
	// 12 is not a power of two; 128 is, but a wait's visited set is one
	// 64-bit word, so nodes 64..127 would be skipped.
	for _, n := range []int{12, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDEER(%d) must panic", n)
				}
			}()
			NewDEER(n, nil)
		}()
	}
	NewDEER(64, nil) // the largest table one word covers
}

// TestKernelEnginesFillLines pins the four kernels' engine structs, and
// the readers whose per-section words they guard, to whole cache lines or
// to the size they have: every Enter reads the engines, and a size class
// that is not line-aligned would let a neighbouring allocation share their
// lines. It also pins which hot and cold fields share a line.
func TestKernelEnginesFillLines(t *testing.T) {
	for name, n := range map[string]uintptr{
		"DEER": unsafe.Sizeof(DEER{}), "D": unsafe.Sizeof(D{}),
		"Packed": unsafe.Sizeof(Packed{}), "TreeRCU": unsafe.Sizeof(TreeRCU{}),
	} {
		if n%pad.CacheLineSize != 0 {
			t.Errorf("sizeof(%s) = %d, want a multiple of %d", name, n, pad.CacheLineSize)
		}
	}
	line := func(off uintptr) uintptr { return off / pad.CacheLineSize }
	// Enter loads the wide-wait switch from the line it loads tbl from.
	var d D
	if line(unsafe.Offsetof(d.mode)) != line(unsafe.Offsetof(d.tbl)) {
		t.Errorf("D.mode at offset %d is off D.tbl's line (offset %d)", unsafe.Offsetof(d.mode), unsafe.Offsetof(d.tbl))
	}
	// Every epoch-kernel Enter loads gp, and nothing else of the engine:
	// gp has the engine's last line to itself, off the mutex URCU's waiters
	// write.
	var p Packed
	if off := unsafe.Offsetof(p.gp); off%pad.CacheLineSize != 0 || unsafe.Sizeof(p)-off != pad.CacheLineSize {
		t.Errorf("Packed.gp at offset %d of %d, want the last line to itself", off, unsafe.Sizeof(p))
	}
	if line(unsafe.Offsetof(p.mu)) == line(unsafe.Offsetof(p.gp)) {
		t.Errorf("Packed.mu at offset %d is on the line of gp's value (offset %d)", unsafe.Offsetof(p.mu), unsafe.Offsetof(p.gp))
	}
	// Every Tree RCU Exit loads tree; every Tree RCU wait writes mu.
	var tr TreeRCU
	if line(unsafe.Offsetof(tr.tree)) == line(unsafe.Offsetof(tr.mu)) {
		t.Errorf("TreeRCU.tree at offset %d shares TreeRCU.mu's line (offset %d)", unsafe.Offsetof(tr.tree), unsafe.Offsetof(tr.mu))
	}
	if tail := unsafe.Sizeof(tr) - unsafe.Offsetof(tr.tree); tail < pad.CacheLineSize {
		t.Errorf("TreeRCU.tree is %d bytes from the struct's end, want a line's padding", tail)
	}
	for name, c := range map[string]struct{ got, want uintptr }{
		"dReader":      {unsafe.Sizeof(dReader{}), pad.CacheLineSize},
		"packedReader": {unsafe.Sizeof(packedReader{}), 40},
		"treeReader":   {unsafe.Sizeof(treeReader{}), 40},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", name, c.got, c.want)
		}
	}
}

func TestDEERDefaultNodes(t *testing.T) {
	d := NewDEER(0, nil)
	if d.NodesPerReader() != DefaultNodesPerReader {
		t.Fatalf("NodesPerReader = %d, want %d", d.NodesPerReader(), DefaultNodesPerReader)
	}
}

func TestTreeRCULevels(t *testing.T) {
	cases := []struct {
		readers, levels int
	}{
		{1, 1}, {8, 1}, {9, 2}, {64, 2}, {65, 3}, {256, 3},
	}
	for _, c := range cases {
		if got := len(buildTree(c.readers).levels); got != c.levels {
			t.Errorf("Levels(%d readers) = %d, want %d", c.readers, got, c.levels)
		}
	}
	// The engine sizes its tree to the registry's allocated slots: one
	// 64-slot segment, then two once a 65th reader registers.
	tr := NewTreeRCU()
	if got := tr.Levels(); got != 2 {
		t.Errorf("Levels(64 slots) = %d, want 2", got)
	}
	rds := make([]Reader, 65)
	for i := range rds {
		rds[i] = mustRegister(t, tr)
	}
	tr.WaitForReaders(All())
	if got := tr.Levels(); got != 3 {
		t.Errorf("Levels(128 slots) = %d, want 3", got)
	}
	for _, rd := range rds {
		rd.Unregister()
	}
}

func TestTreeRCUTreeDrainsToZero(t *testing.T) {
	tr := NewTreeRCU()
	var rds []Reader
	for i := 0; i < 64; i++ {
		rd, err := tr.Register()
		if err != nil {
			t.Fatal(err)
		}
		rds = append(rds, rd)
	}
	for i := 0; i < 50; i++ {
		for _, rd := range rds {
			rd.Enter(0)
		}
		done := make(chan struct{})
		go func() {
			tr.WaitForReaders(All())
			close(done)
		}()
		for _, rd := range rds {
			rd.Exit(0)
		}
		<-done
		tl := tr.tree.Load()
		for l := range tl.levels {
			for w := range tl.levels[l] {
				if v := tl.levels[l][w].Load(); v != 0 {
					t.Fatalf("iteration %d: tree word [%d][%d] = %#x after grace period", i, l, w, v)
				}
			}
		}
	}
	for _, rd := range rds {
		rd.Unregister()
	}
}

func TestUnregisterInsideCSPanics(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			r := mk()
			rd, _ := r.Register()
			rd.Enter(1)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Unregister inside a critical section must panic")
					}
				}()
				rd.Unregister()
			}()
			rd.Exit(1)
			rd.Unregister()
		})
	}
}

func TestEERReaderValueVisibleToWaiter(t *testing.T) {
	clock := tsc.NewManual(100)
	e := NewEER(clock)
	rd, _ := e.Register()
	rd.Enter(77)
	// The waiter must see the reader's posted value and wait on it.
	node := &rd.(*stampReader).table[0]
	if got := node.value.Load(); got != 77 {
		t.Fatalf("posted value = %d, want 77", got)
	}
	if got := node.time.Load(); got != 100 {
		t.Fatalf("posted time = %d, want 100", got)
	}
	rd.Exit(77)
	if got := node.time.Load(); got != tsc.Infinity {
		t.Fatalf("time after exit = %d, want Infinity", got)
	}
	rd.Unregister()

	// Time RCU runs the same kernel with values off: Enter posts its time
	// but leaves the node's value untouched.
	tr := NewTimeRCU(clock)
	rd, _ = tr.Register()
	node = &rd.(*stampReader).table[0]
	rd.Enter(77)
	if got := node.value.Load(); got != 0 {
		t.Fatalf("Time RCU posted value = %d, want the node's untouched 0", got)
	}
	if got := node.time.Load(); got != 100 {
		t.Fatalf("Time RCU posted time = %d, want 100", got)
	}
	rd.Exit(77)
	rd.Unregister()
}

// TestWaitStopsEnumeratingOnceTableCovered: with one idle reader, a wait on
// a 2^20-value iterable predicate calls next only until every node of the
// table has been visited. One-node and one-entry tables, and the engines
// that wait for every reader, enumerate nothing.
func TestWaitStopsEnumeratingOnceTableCovered(t *testing.T) {
	cases := []struct {
		name string
		r    RCU
		max  int64 // next calls allowed
	}{
		{"EER", NewEER(nil), 0},
		{"Time", NewTimeRCU(nil), 0},
		{"SRCU", NewSRCU(), 0},
		{"DEER(1)", NewDEER(1, nil), 0},
		{"D(1)", NewD(1), 0},
		{"DEER(16)", NewDEER(16, nil), 999},
		{"D(1024)", NewD(1024), 1<<16 - 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rd, err := c.r.Register()
			if err != nil {
				t.Fatal(err)
			}
			rd.Enter(3)
			rd.Exit(3)
			var calls int64
			next := func(v Value) Value { calls++; return v + 1 }
			c.r.WaitForReaders(Iterable(0, 1<<20, next))
			if calls > c.max {
				t.Fatalf("wait called next %d times, want at most %d", calls, c.max)
			}
			rd.Unregister()
		})
	}
}

func TestSimulatedWaitBurnsTime(t *testing.T) {
	inner := NewTimeRCU(nil)
	s := NewSimulated(inner, 2_000_000) // 2ms
	c := tsc.NewMonotonic()
	start := c.Now()
	s.WaitForReaders(All())
	if elapsed := c.Now() - start; elapsed < 1_500_000 {
		t.Fatalf("simulated wait burned only %dns, want ~2ms", elapsed)
	}
	if s.Name() != "Time RCU (simulated wait)" {
		t.Fatalf("Name = %q", s.Name())
	}
	rd, err := s.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(1)
	rd.Exit(1)
	rd.Unregister()
}

func TestSimulatedZeroWaitReturnsImmediately(t *testing.T) {
	s := NewSimulated(NewTimeRCU(nil), 0)
	s.WaitForReaders(All())
}
