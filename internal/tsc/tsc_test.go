package tsc

import (
	"sync"
	"testing"
	"time"
)

func TestMonotonicAdvances(t *testing.T) {
	c := NewMonotonic()
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("clock did not advance: %d then %d", a, b)
	}
}

func TestMonotonicNeverDecreases(t *testing.T) {
	c := NewMonotonic()
	prev := c.Now()
	for i := 0; i < 100000; i++ {
		now := c.Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d then %d", prev, now)
		}
		prev = now
	}
}

func TestMonotonicNeverReturnsInfinity(t *testing.T) {
	c := NewMonotonic()
	for i := 0; i < 1000; i++ {
		if c.Now() == Infinity {
			t.Fatal("Now returned the reserved Infinity value")
		}
	}
}

func TestLogicalStrictlyIncreases(t *testing.T) {
	c := NewLogical()
	prev := c.Now()
	for i := 0; i < 10000; i++ {
		now := c.Now()
		if now <= prev {
			t.Fatalf("logical clock not strictly increasing: %d then %d", prev, now)
		}
		prev = now
	}
}

func TestLogicalCrossThreadUnique(t *testing.T) {
	uniqueAcrossThreads(t, NewLogical().Now)
}

// uniqueAcrossThreads draws from next on 8 goroutines at once and fails
// on any value drawn twice.
func uniqueAcrossThreads(t *testing.T, next func() int64) {
	const perG, gs = 10000, 8
	results := make([][]int64, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]int64, perG)
			for i := range results[g] {
				results[g][i] = next()
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[int64]bool, perG*gs)
	for _, r := range results {
		for _, v := range r {
			if seen[v] {
				t.Fatalf("duplicate tick %d across threads", v)
			}
			seen[v] = true
		}
	}
}

func TestEpochTick(t *testing.T) {
	c := NewEpoch()
	if c.Now() != 0 {
		t.Fatalf("new epoch reads %d, want 0", c.Now())
	}
	// Now only loads; Tick returns the epoch it advanced past.
	for i := int64(0); i < 3; i++ {
		if now := c.Now(); now != i {
			t.Fatalf("Now = %d, want %d", now, i)
		}
		if got := c.Tick(); got != i {
			t.Fatalf("Tick = %d, want %d", got, i)
		}
		if c.Now() <= i {
			t.Fatalf("Now = %d after Tick returned %d, want more", c.Now(), i)
		}
	}
}

func TestEpochTicksUnique(t *testing.T) {
	c := NewEpoch()
	uniqueAcrossThreads(t, c.Tick)
	if c.Now() != 8*10000 {
		t.Fatalf("Now = %d after %d ticks", c.Now(), 8*10000)
	}
}

func TestManualClock(t *testing.T) {
	c := NewManual(10)
	if c.Now() != 10 {
		t.Fatalf("Now = %d, want 10", c.Now())
	}
	if got := c.Advance(5); got != 15 {
		t.Fatalf("Advance returned %d, want 15", got)
	}
	if c.Now() != 15 {
		t.Fatalf("Now = %d, want 15", c.Now())
	}
}

func TestManualBackwardsPanics(t *testing.T) {
	c := NewManual(10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance must panic")
		}
	}()
	c.Advance(-1)
}

func TestInfinityOrdering(t *testing.T) {
	c := NewMonotonic()
	if !(c.Now() < Infinity) {
		t.Fatal("Infinity must exceed any clock reading")
	}
}
