package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainCoveredBitmapSpill drives WaitForReaders with an interval wide
// enough to overflow the small dedup buffer into the bitmap path and to
// cover every node of a 32-node table many times over, and verifies dedup
// and the early stop by counting drains: each node exactly once.
func TestDrainCoveredBitmapSpill(t *testing.T) {
	d := NewD(32)
	tbl := d.tbl.Load()
	var before [32]uint64
	for i := range before {
		before[i] = tbl.nodes[i].drains.Load()
	}
	// Disable optimistic waiting so every drain goes through the gate
	// protocol and bumps the drain counter.
	d.SetOptimisticBudget(0)
	d.WaitForReaders(Interval(0, 1023)) // 1024 values, 32 per node on average
	for i := range before {
		if got := tbl.nodes[i].drains.Load() - before[i]; got != 1 {
			t.Fatalf("node %d drained %d times, want exactly 1", i, got)
		}
	}
	// On a one-entry table every value collides: the wait drains the
	// node once without enumerating.
	d1 := NewD(1)
	d1.SetOptimisticBudget(0)
	n := &d1.tbl.Load().nodes[0]
	d1.WaitForReaders(Interval(0, 63))
	if got := n.drains.Load(); got != 1 {
		t.Fatalf("one-entry node drained %d times for 64 colliding values, want exactly 1", got)
	}
}

// TestDrainCoveredBitmapSpillWideTable exercises the spill path on a
// larger table where the interval genuinely covers many distinct nodes.
func TestDrainCoveredBitmapSpillWideTable(t *testing.T) {
	d := NewD(256)
	d.SetOptimisticBudget(0)
	tbl := d.tbl.Load()
	sum := func() (s uint64) {
		for i := range tbl.nodes {
			s += tbl.nodes[i].drains.Load()
		}
		return
	}
	before := sum()
	d.WaitForReaders(Interval(0, 99)) // 100 values
	drains := sum() - before
	// Distinct covered nodes, computed the same way the engine does.
	distinct := map[uint64]bool{}
	for v := Value(0); v < 100; v++ {
		distinct[tbl.index(v)] = true
	}
	if int(drains) != len(distinct) {
		t.Fatalf("drained %d nodes, want %d distinct covered nodes", drains, len(distinct))
	}
}

// TestBatchingPiggyback: a drain that finds the node lock held must
// complete once two full drains finish, without acquiring the lock.
func TestBatchingPiggyback(t *testing.T) {
	d := NewD(1)
	d.SetOptimisticBudget(0)
	tbl := d.tbl.Load()
	n := &tbl.nodes[0]

	// Hold the node lock to force piggybacking.
	n.mu.Lock()
	done := make(chan struct{})
	go func() {
		d.WaitForReaders(Singleton(1))
		close(done)
	}()
	// The waiter must not return while the lock is held and no drains
	// complete.
	select {
	case <-done:
		t.Fatal("wait returned while the drain lock was held and no drains completed")
	case <-time.After(30 * time.Millisecond):
	}
	// Simulate two completed drains by the lock holder.
	n.drains.Add(1)
	select {
	case <-done:
		t.Fatal("one completed drain must not release a piggybacking waiter")
	case <-time.After(30 * time.Millisecond):
	}
	n.drains.Add(1)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter did not piggyback after two completed drains")
	}
	n.mu.Unlock()
}

// TestConcurrentDrainsSameNode floods one node with concurrent waits
// under reader churn: all must terminate and the counters return to zero.
func TestConcurrentDrainsSameNode(t *testing.T) {
	d := NewD(1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd, err := d.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer rd.Unregister()
			// Yield periodically: a reader that never blocks would own a
			// whole scheduler time slice on GOMAXPROCS=1 hosts, starving
			// the waiters this test is about.
			for i := 0; !stop.Load(); i++ {
				rd.Enter(5)
				rd.Exit(5)
				if i%32 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	var waiters sync.WaitGroup
	for g := 0; g < 6; g++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			iters := scale(40, 12)
			for i := 0; i < iters; i++ {
				d.WaitForReaders(Singleton(5))
			}
		}()
	}
	finished := make(chan struct{})
	go func() { waiters.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent drains of one node did not terminate")
	}
	stop.Store(true)
	wg.Wait()
	tbl := d.tbl.Load()
	if c0, c1 := tbl.nodes[0].readers[0].Load(), tbl.nodes[0].readers[1].Load(); c0 != 0 || c1 != 0 {
		t.Fatalf("counters %d,%d after quiescence, want 0,0", c0, c1)
	}
}

// TestResizeWhileWaitersRun interleaves resizes with singleton waits —
// waits that load the old generation must drain it and stay safe.
func TestResizeConcurrentWithWaits(t *testing.T) {
	d := NewD(16)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd, err := d.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer rd.Unregister()
			for i := 0; !stop.Load(); i++ {
				v := Value(g*100 + i%7)
				rd.Enter(v)
				rd.Exit(v)
				if i%32 == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200 && !stop.Load(); i++ {
			d.WaitForReaders(Singleton(Value(i % 9)))
		}
	}()
	for _, s := range []int{32, 16, 64, 16} {
		d.Resize(s)
	}
	stop.Store(true)
	wg.Wait()
	if d.TableSize() != 16 {
		t.Fatalf("TableSize = %d, want 16", d.TableSize())
	}
}
