package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Memory-ordering litmus tests for the packed reader word. Each test
// realizes one of the classic two-thread shapes whose forbidden outcome
// would appear if Enter/Exit were weakened from Go atomics (seq-cst) to
// plain loads and stores — the exact weakening the C11 original guards
// against with acquire/release plus a seq-cst fence at the epoch flip
// (DESIGN.md, "Packed reader word"). The tests run the shapes many
// thousands of times and are -race clean: every cross-goroutine access
// goes through sync/atomic or the engine itself.

// TestPackedLitmusStoreBuffering is the store-buffering shape, the one
// that makes the seq-cst fence at the flip mandatory:
//
//	reader: word.Store(active)   ; read protected state
//	waiter: gp.Add(flip)         ; word.Load() in the drain scan
//
// The forbidden outcome is both sides missing each other — the waiter's
// scan loading the pre-Enter word while the reader's section is still
// open, which would let a grace period complete around a live reader.
// The reader publishes each section through a seqlock record (odd =
// open, set only after Enter returns; even = closed, set before Exit is
// invoked), and the waiter asserts every covered odd sequence it
// snapshotted before the wait has advanced when the wait returns. The
// critical sections are empty, maximizing the density of Enter/Exit
// stores racing the flip+scan.
func TestPackedLitmusStoreBuffering(t *testing.T) {
	p := NewPacked()
	var rec csRecord
	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rd, err := p.Register()
		if err != nil {
			t.Error(err)
			return
		}
		defer rd.Unregister()
		rec.val.Store(1)
		for i := 0; !stop.Load(); i++ {
			rd.Enter(1)
			rec.seq.Add(1) // open
			rec.seq.Add(1) // closed
			rd.Exit(1)
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()
	waits := scale(3000, 500)
	for n := 0; n < waits; n++ {
		s := rec.seq.Load()
		open := s&1 == 1
		p.WaitForReaders(All())
		if open && rec.seq.Load() == s {
			t.Fatal("store-buffering outcome: wait returned around an open section")
		}
	}
	stop.Store(true)
	<-readerDone
}

// TestPackedLitmusMessagePassing is the message-passing shape chained
// through a grace period — the pattern real reclamation depends on. The
// updater publishes a new slot, points cur at it, waits, then poisons
// the retired slot:
//
//	updater: slots[next].Store(g); cur.Store(next); Wait; slots[prev].Store(poison)
//	reader:  Enter; c := cur.Load(); v := slots[c].Load(); Exit
//
// A reader can observe poison only if ordering is broken in one of two
// ways: its Enter store reached the word after the waiter's scan (the
// store-buffering miss above), or its cur.Load moved ahead of Enter and
// read the retired index after the wait that should have covered it.
// With seq-cst atomics both are impossible: a reader the wait skipped
// entered after the flip, therefore loads cur after the updater's
// cur.Store, therefore reads the fresh slot.
func TestPackedLitmusMessagePassing(t *testing.T) {
	p := NewPacked()
	const poison = -1
	var slots [2]atomic.Int64
	var cur atomic.Int32
	var stop atomic.Bool
	fail := make(chan string, 4)
	done := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			rd, err := p.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer rd.Unregister()
			for i := 0; !stop.Load(); i++ {
				rd.Enter(0)
				c := cur.Load()
				v := slots[c].Load()
				rd.Exit(0)
				if v == poison {
					select {
					case fail <- "message-passing outcome: read a poisoned slot inside a section":
					default:
					}
					return
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	iters := scale(2000, 300)
	for i := 0; i < iters; i++ {
		next := 1 - cur.Load()
		slots[next].Store(int64(i))
		cur.Store(next)
		p.WaitForReaders(All())
		slots[1-next].Store(poison)
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	}
	stop.Store(true)
	<-done
	<-done
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestPackedWordNeverTorn proves the single-word pack cannot expose
// active-without-epoch: an observer hammering the word must only ever
// see 0 (quiescent) or active with an epoch no newer than the global
// epoch read *afterwards* — any other state would mean the flag and the
// epoch were published separately. (With two separate cells this
// invariant is unenforceable; the single atomic store is the point.)
func TestPackedWordNeverTorn(t *testing.T) {
	p := NewPacked()
	rd, err := p.Register()
	if err != nil {
		t.Fatal(err)
	}
	word := rd.(*packedReader).word
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			rd.Enter(0)
			rd.Exit(0)
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		rd.Unregister()
	}()
	// Interleave observation with waits so the epoch keeps advancing and
	// the invariant is checked across many distinct epoch values.
	checks := scale(200000, 30000)
	for i := 0; i < checks; i++ {
		c := word.Load()
		g := p.gp.Load() // after the word read: c's epoch must be ≤ g
		if c == 0 {
			continue
		}
		if c&packedActive == 0 {
			t.Fatalf("torn state: nonzero word %#x without the active bit", c)
		}
		if int32((c&^packedActive)-g) > 0 {
			t.Fatalf("torn state: active word %#x carries an epoch newer than global %#x", c, g)
		}
		if i%1000 == 0 {
			p.WaitForReaders(All())
		}
	}
	stop.Store(true)
	<-done
}

// FuzzPackedOps drives a fuzzed schedule of register / enter / exit /
// wait / unregister operations against the packed engine and checks the
// reader words and registry stay consistent. Waits only run while this
// goroutine holds no open section (a self-covered wait would deadlock
// by design). The seed corpus replays under ci.sh's fuzz gate.
func FuzzPackedOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 1, 1, 3, 2, 2, 4, 4})
	f.Add([]byte{1, 3, 2, 4, 0, 1, 2, 3, 4, 0, 1, 2})
	f.Add([]byte{0, 1, 4, 3, 0, 2, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewPacked()
		type slot struct {
			rd   Reader
			open bool
			v    Value
		}
		var readers []*slot
		for _, b := range ops {
			switch b % 5 {
			case 0: // register
				if len(readers) < 4 {
					rd, err := p.Register()
					if err != nil {
						t.Fatalf("register under cap: %v", err)
					}
					readers = append(readers, &slot{rd: rd})
				}
			case 1: // enter
				for _, s := range readers {
					if !s.open {
						s.v = Value(b >> 3)
						s.rd.Enter(s.v)
						s.open = true
						break
					}
				}
			case 2: // exit
				for _, s := range readers {
					if s.open {
						s.rd.Exit(s.v)
						s.open = false
						break
					}
				}
			case 3: // wait — only when this goroutine holds no open section
				// (Packed is a plain RCU: every wait covers all readers,
				// so a wait under our own open section would deadlock.)
				open := false
				for _, s := range readers {
					if s.open {
						open = true
						break
					}
				}
				if !open {
					p.WaitForReaders(Singleton(Value(b >> 3)))
				}
			case 4: // unregister a quiescent reader
				for i, s := range readers {
					if !s.open {
						s.rd.Unregister()
						readers = append(readers[:i], readers[i+1:]...)
						break
					}
				}
			}
		}
		// Close every section, then a full grace period must complete.
		for _, s := range readers {
			if s.open {
				s.rd.Exit(s.v)
				s.open = false
			}
			if w := s.rd.(*packedReader).word.Load(); w != 0 {
				t.Fatalf("quiescent reader word = %#x, want 0", w)
			}
		}
		p.WaitForReaders(All())
		for _, s := range readers {
			s.rd.Unregister()
		}
		if p.LiveReaders() != 0 {
			t.Fatalf("LiveReaders = %d after unregistering all, want 0", p.LiveReaders())
		}
	})
}
