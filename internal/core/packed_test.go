package core

import (
	"testing"
	"time"

	"prcu/internal/obs"
	"prcu/internal/tsc"
)

func TestPackedOngoing(t *testing.T) {
	cases := []struct {
		name  string
		c, gp uint32
		want  bool
	}{
		{"offline", 0, 4, false},
		{"offline stale epoch", 2, 4, false},
		{"active old epoch", 2 | packedActive, 4, true},
		{"active current epoch", 4 | packedActive, 4, false},
		{"active future epoch", 6 | packedActive, 4, false},
		// Wraparound: a reader that entered just before the epoch wrapped
		// is still "older" under signed comparison.
		{"active across wrap", (^uint32(1) - 2) | packedActive, 2, true},
		{"fresh across wrap", 2 | packedActive, ^uint32(1), false},
	}
	for _, c := range cases {
		if got := packedOngoing(c.c, c.gp); got != c.want {
			t.Errorf("%s: packedOngoing(%#x, %#x) = %v, want %v", c.name, c.c, c.gp, got, c.want)
		}
	}
}

// epochKernels are the epoch kernel's two flavors: Packed's waiters run
// lock-free, URCU's behind the writer lock. Their readers are one code
// path, and each runs the same two-phase wait.
var epochKernels = []struct {
	name string
	new  func() *Packed
}{{"Packed", NewPacked}, {"URCU", NewURCU}}

// forEachEpochKernel runs fn as a subtest on a fresh engine of each
// epoch-kernel flavor.
func forEachEpochKernel(t *testing.T, fn func(t *testing.T, p *Packed)) {
	for _, k := range epochKernels {
		t.Run(k.name, func(t *testing.T) { fn(t, k.new()) })
	}
}

func TestPackedEnterPublishesEpoch(t *testing.T) {
	forEachEpochKernel(t, func(t *testing.T, p *Packed) {
		rd, err := p.Register()
		if err != nil {
			t.Fatal(err)
		}
		g := p.gp.Load()
		if g&packedActive != 0 {
			t.Fatalf("global epoch %#x carries the active bit", g)
		}
		rd.Enter(9)
		if w := rd.(*packedReader).word.Load(); w != g|packedActive {
			t.Fatalf("word after Enter = %#x, want %#x", w, g|packedActive)
		}
		rd.Exit(9)
		if w := rd.(*packedReader).word.Load(); w != 0 {
			t.Fatalf("word after Exit = %#x, want 0", w)
		}
		rd.Unregister()
	})
}

func TestPackedWaitAdvancesEpochTwice(t *testing.T) {
	forEachEpochKernel(t, func(t *testing.T, p *Packed) {
		g0 := p.gp.Load()
		p.WaitForReaders(All())
		if g1 := p.gp.Load(); g1 != g0+2*packedEpochInc {
			t.Fatalf("epoch after wait = %#x, want %#x (two flips)", g1, g0+2*packedEpochInc)
		}
	})
}

// TestPackedWaitSkipsQuiescentSlots checks the active-flag gating via the
// wait metrics: registered-but-quiescent readers are scanned (one load
// each, both phases) but never waited on.
func TestPackedWaitSkipsQuiescentSlots(t *testing.T) {
	forEachEpochKernel(t, testWaitSkipsQuiescentSlots)
}

func testWaitSkipsQuiescentSlots(t *testing.T, p *Packed) {
	p.SetMetrics(obs.New())
	var rds []Reader
	for i := 0; i < 3; i++ {
		rd, err := p.Register()
		if err != nil {
			t.Fatal(err)
		}
		rd.Enter(Value(i))
		rd.Exit(Value(i))
		rds = append(rds, rd)
	}
	p.WaitForReaders(All())
	s := p.Stats()
	if s.Waits != 1 || s.ReadersScanned != 6 || s.ReadersWaited != 0 {
		t.Fatalf("waits=%d scanned=%d waited=%d, want 1/6/0", s.Waits, s.ReadersScanned, s.ReadersWaited)
	}
	for _, rd := range rds {
		rd.Unregister()
	}
}

// TestPackedConcurrentWaitersNoMutex drives many concurrent waiters with
// reader churn: unlike URCU's there is no writer lock, so every waiter
// flips and drains independently — the test asserts they all terminate
// and the safety property holds throughout (the harness checks exits).
func TestPackedConcurrentWaitersNoMutex(t *testing.T) {
	p := NewPacked()
	h := newSafetyHarness(p, 6)
	for i := 0; i < 6; i++ {
		id := i
		h.runReader(t, id, func(i int) Value { return Value((id*13 + i) % 16) })
	}
	for i := 0; i < 6; i++ {
		h.runWaiter(t, All(), scale(150, 50))
	}
	h.finish(t, scaleDur(200*time.Millisecond, 60*time.Millisecond))
}

// TestPackedEpochWraparound pre-positions the global epoch just below
// the 32-bit wrap and verifies grace periods stay correct across it: a
// pre-wrap reader blocks a post-wrap wait, and post-wrap quiescent
// readers do not.
func TestPackedEpochWraparound(t *testing.T) {
	forEachEpochKernel(t, testEpochWraparound)
}

func testEpochWraparound(t *testing.T, p *Packed) {
	p.gp.Store(^uint32(1) - 4*packedEpochInc) // even, 4 flips below wrap
	rd, err := p.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(1)
	for i := 0; i < 3; i++ { // push the epoch across the wrap
		returned := make(chan struct{})
		go func() {
			p.WaitForReaders(All())
			close(returned)
		}()
		select {
		case <-returned:
			t.Fatalf("wait %d returned while a pre-wrap section was open", i)
		case <-time.After(20 * time.Millisecond):
		}
		rd.Exit(1)
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("wait %d did not return after the reader exited", i)
		}
		rd.Enter(1)
	}
	rd.Exit(1)
	p.WaitForReaders(All())
	rd.Unregister()
}

// TestPackedStalledReaders checks the watchdog names exactly the slot a
// wedged wait is blocked on, and not a quiescent bystander's.
func TestPackedStalledReaders(t *testing.T) {
	forEachEpochKernel(t, testStalledReaders)
}

func testStalledReaders(t *testing.T, p *Packed) {
	clk := tsc.NewManual(0)
	reports := make(chan StallReport, 1)
	p.SetStallConfig(StallConfig{
		Timeout:   1_000,
		RateLimit: time.Hour,
		Clock:     clk,
		OnStall:   func(rep StallReport) { reports <- rep },
	})
	bystander, err := p.Register()
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := p.Register()
	if err != nil {
		t.Fatal(err)
	}
	blocker.Enter(5)
	released := make(chan struct{})
	go func() {
		p.WaitForReaders(All())
		close(released)
	}()
	deadline := time.After(5 * time.Second)
	var rep StallReport
	for got := false; !got; {
		select {
		case rep = <-reports:
			got = true
		case <-deadline:
			t.Fatal("watchdog never fired on the blocked wait")
		default:
			clk.Advance(2_000)
			time.Sleep(time.Millisecond)
		}
	}
	if want := blocker.(*packedReader).slot; len(rep.Readers) != 1 || rep.Readers[0].Slot != want {
		t.Fatalf("report readers = %+v, want exactly the blocker's slot %d", rep.Readers, want)
	}
	blocker.Exit(5)
	<-released
	blocker.Unregister()
	bystander.Unregister()
}

// TestURCUWaitersSerialize: while one wait is blocked on a parked reader,
// URCU's writer lock holds a second wait off the epoch, and Packed's
// second wait flips it on its own.
func TestURCUWaitersSerialize(t *testing.T) {
	for _, k := range epochKernels {
		t.Run(k.name, func(t *testing.T) {
			p := k.new()
			release := parkReader(t, p, 1)
			waitFlip := func(from uint32) uint32 {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); p.gp.Load() == from; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("epoch never advanced past %#x", from)
					}
				}
				return p.gp.Load()
			}
			start := func() (started, done chan struct{}) {
				started, done = make(chan struct{}), make(chan struct{})
				go func() {
					close(started)
					p.WaitForReaders(All())
					close(done)
				}()
				return started, done
			}
			g0 := p.gp.Load()
			_, first := start()
			g1 := waitFlip(g0) // the first wait's first flip; it is blocked now
			started, second := start()
			<-started
			if k.name == "URCU" {
				time.Sleep(30 * time.Millisecond)
				if g := p.gp.Load(); g != g1 {
					t.Fatalf("a second URCU wait moved the epoch %#x -> %#x while the first was blocked", g1, g)
				}
			} else {
				waitFlip(g1)
			}
			release()
			for _, done := range []chan struct{}{first, second} {
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("a wait did not return after release")
				}
			}
		})
	}
}
