package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/tsc"
)

// The timestamp engines scan quiescent-first: a wait takes its t0 only
// once it has found a reader inside a covered section. These tests pin
// that with a counting clock and, on the default epoch clock, as the
// epoch's one write; and pin the late-t0 safety argument with a frozen
// clock and the epoch's liveness with a re-entering reader.

// countingClock counts Now calls on top of a Manual clock.
type countingClock struct {
	tsc.Manual
	reads atomic.Int64
}

func (c *countingClock) Now() int64 {
	c.reads.Add(1)
	return c.Manual.Now()
}

// timestampEngines constructs each of the three clocked flavors over a
// given clock.
var timestampEngines = map[string]func(c Clock) RCU{
	"EER":  func(c Clock) RCU { return NewEER(c) },
	"DEER": func(c Clock) RCU { return NewDEER(16, c) },
	"Time": func(c Clock) RCU { return NewTimeRCU(c) },
}

// twoValues is the two-value iterable predicate {a, b}, the shape of the
// hash table's split predicate.
func twoValues(a, b Value) Predicate {
	return Iterable(a, b, func(Value) Value { return b })
}

// nodeValue returns a value other than v whose DEER node (16 per reader)
// is v's (shared true) or is neither v's nor v+1's (shared false).
func nodeValue(v Value, shared bool) Value {
	node := func(u Value) uint64 { return hashValue(u) & 15 }
	for u := v + 2; ; u++ {
		if shared && node(u) == node(v) || !shared && node(u) != node(v) && node(u) != node(v+1) {
			return u
		}
	}
}

func mustRegister(tb testing.TB, r RCU) Reader {
	tb.Helper()
	rd, err := r.Register()
	if err != nil {
		tb.Fatal(err)
	}
	return rd
}

// startBlockedWait starts a wait on p that must find a covered section
// open, and returns once that wait has taken its t0 — the last thing it
// does before it starts polling the section's node — seen as progress
// moving: the counting clock's reads, or the epoch itself.
func startBlockedWait(t *testing.T, r RCU, progress func() int64, p Predicate) (done chan struct{}) {
	t.Helper()
	before := progress()
	done = make(chan struct{})
	go func() { r.WaitForReaders(p); close(done) }()
	for deadline := time.Now().Add(10 * time.Second); progress() == before; time.Sleep(50 * time.Microsecond) {
		select {
		case <-done:
			t.Fatal("wait returned with a covered section open")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("wait never took its t0 with a covered section open")
		}
	}
	return done
}

// clockUsePreds are the predicates the clock-use tests wait on: each
// covers a, and the selective ones b as well.
func clockUsePreds(a, b Value) map[string]Predicate {
	return map[string]Predicate{
		"All": All(), "Singleton": Singleton(a), "Iterable": twoValues(a, b),
		"Func": Func(func(v Value) bool { return v == a || v == b }),
	}
}

// checkClockUse runs the wait scenarios of the two tests below on r,
// waiting on p, which covers a; count is what the wait's t0 moves (clock
// reads, or the epoch). count must not move on a wait with no readers,
// with quiescent readers, or (selective: p leaves some values uncovered)
// with a reader inside an uncovered section; and must move by exactly 1
// on a wait that blocks on three covered sections.
func checkClockUse(t *testing.T, r RCU, p Predicate, a Value, selective bool, count func() int64) {
	expectNone := func(scenario string) {
		t.Helper()
		before := count()
		r.WaitForReaders(p)
		if n := count() - before; n != 0 {
			t.Errorf("%s: t0 taken %d times, want 0", scenario, n)
		}
	}
	expectNone("no readers")
	readers := make([]Reader, 5)
	for i := range readers {
		readers[i] = mustRegister(t, r)
		readers[i].Enter(a)
		readers[i].Exit(a)
	}
	expectNone("quiescent readers")
	// Open sections on values p does not hold for: on a DEER node no
	// covered value hashes to, and on a's own.
	if selective {
		for _, shared := range []bool{false, true} {
			u := nodeValue(a, shared)
			readers[0].Enter(u)
			expectNone(fmt.Sprintf("active uncovered reader (shares a covered DEER node: %v)", shared))
			readers[0].Exit(u)
		}
	}
	// Three of the five inside covered sections entered before the wait:
	// it blocks, and completes as they exit, having taken t0 once.
	for _, rd := range readers[:3] {
		rd.Enter(a)
	}
	before := count()
	done := startBlockedWait(t, r, count, p)
	for _, rd := range readers[:3] {
		select {
		case <-done:
			t.Fatal("wait returned with a covered section open")
		default:
		}
		rd.Exit(a)
	}
	<-done
	if n := count() - before; n != 1 {
		t.Errorf("covered readers: t0 taken %d times, want exactly 1", n)
	}
	for _, rd := range readers {
		rd.Unregister()
	}
}

// TestWaitReadsClockOnlyForCoveredSection: zero clock reads by a wait that
// finds nobody to wait for, exactly one by a wait that does, however many
// readers it scans.
func TestWaitReadsClockOnlyForCoveredSection(t *testing.T) {
	const a, b = Value(5), Value(6)
	for name, mk := range timestampEngines {
		for pname, p := range clockUsePreds(a, b) {
			t.Run(name+"/"+pname, func(t *testing.T) {
				clock := &countingClock{}
				clock.Advance(100)
				// Time RCU and the wildcard cover every section, so they
				// have no uncovered case.
				checkClockUse(t, mk(clock), p, a, name != "Time" && pname != "All", clock.reads.Load)
			})
		}
	}
}

// defaultEpoch returns the epoch r, a timestamp engine built with a nil
// clock, runs on: the default clock must be a tsc.Epoch.
func defaultEpoch(t *testing.T, r RCU) *tsc.Epoch {
	t.Helper()
	e, ok := r.(*DEER).clock.(*tsc.Epoch)
	if !ok {
		t.Fatalf("%s's default clock is %T, want *tsc.Epoch", r.Name(), r.(*DEER).clock)
	}
	return e
}

// TestEpochTicksOnlyForCoveredSection pins the epoch clock's write
// discipline, each engine on its default clock: a wait that finds nobody
// to wait for leaves the epoch readers load untouched, and a wait that
// blocks advances it by exactly 1, however many readers it blocks on.
func TestEpochTicksOnlyForCoveredSection(t *testing.T) {
	const a, b = Value(5), Value(6)
	for name, mk := range timestampEngines {
		for pname, p := range clockUsePreds(a, b) {
			t.Run(name+"/"+pname, func(t *testing.T) {
				r := mk(nil)
				checkClockUse(t, r, p, a, name != "Time" && pname != "All", defaultEpoch(t, r).Now)
			})
		}
	}
}

// TestEpochReentryDoesNotBlockWait is the epoch clock's liveness case: a
// reader that exits and re-enters on the same covered value after the
// wait ticked posts a later epoch, so the wait returns on the first exit
// alone — a reader looping sections cannot starve it.
func TestEpochReentryDoesNotBlockWait(t *testing.T) {
	const v = Value(5)
	for name, mk := range timestampEngines {
		t.Run(name, func(t *testing.T) {
			r := mk(nil)
			epoch := defaultEpoch(t, r)
			rd := mustRegister(t, r)
			rd.Enter(v)
			done := startBlockedWait(t, r, epoch.Now, Singleton(v))
			rd.Exit(v)
			rd.Enter(v)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("wait blocked on a section re-entered after its tick")
			}
			rd.Exit(v)
			rd.Unregister()
		})
	}
}

// TestFrozenClockWaitSemantics freezes the clock, so that a section's
// timestamp equals the t0 of any wait, and checks the strict '>' of the
// blocking test both ways; then the one way a section can post a later
// time, by entering after the wait has read the clock.
func TestFrozenClockWaitSemantics(t *testing.T) {
	for name, mk := range timestampEngines {
		t.Run(name, func(t *testing.T) {
			clock := &countingClock{}
			clock.Advance(100)
			r := mk(clock)
			const v = Value(5)
			rd, late := mustRegister(t, r), mustRegister(t, r)

			// T == t0 on a covered value: pre-existing, blocks until Exit.
			rd.Enter(v)
			waitBlocks(t, r, Singleton(v), func() { rd.Exit(v) })

			if name == "DEER" {
				// T == t0 on v's node, but posted by an uncovered value.
				u := nodeValue(v, true)
				rd.Enter(u)
				waitReturnsWithin(t, r, Singleton(v), 10*time.Second)
				rd.Exit(u)
			}

			// rd holds a wait that has read t0 = 100; late then enters at
			// 101 > t0 and stays inside its section: rd's Exit alone must
			// release the wait.
			rd.Enter(v)
			done := startBlockedWait(t, r, clock.reads.Load, Singleton(v))
			clock.Advance(1)
			late.Enter(v)
			rd.Exit(v)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("wait blocked on a section entered after its clock read")
			}
			late.Exit(v)
			rd.Unregister()
			late.Unregister()
		})
	}
}

// BenchmarkWaitQuiescent times a wait that finds nobody to wait for, on
// every flavor: with no reader registered, with one quiescent reader, and
// (predicate-aware flavors, selective predicates) with one reader inside a
// section the predicate does not cover. Such a wait must not allocate.
// D1024 is D-PRCU at the paper's table size, for its wide waits (All,
// Func), switched by one wide wait before its reader registers: the
// timed waits visit the readers rather than the 1024 nodes, and a
// quiescent reader has left its node in its slot.
func BenchmarkWaitQuiescent(b *testing.B) {
	const v, w = Value(5), Value(6)
	// Uncovered, and on neither covered value's DEER node — hence on
	// neither one's D-PRCU node, whose index extends the DEER node's.
	far := nodeValue(v, false)
	preds := []struct {
		name string
		p    Predicate
	}{
		{"All", All()},
		{"Func", Func(func(u Value) bool { return u == v || u == w })},
		{"Singleton", Singleton(v)},
		{"Iterable2", twoValues(v, w)},
	}
	run := func(name string, mk func() RCU, readers string, p Predicate) {
		b.Run(name, func(b *testing.B) {
			r := mk()
			if readers != "none" {
				rd := mustRegister(b, r)
				rd.Enter(v)
				rd.Exit(v)
				if readers == "uncovered" {
					rd.Enter(far)
					defer rd.Exit(far)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { r.WaitForReaders(p) }); allocs != 0 {
				b.Fatalf("%v allocs per wait, want 0", allocs)
			}
			b.ReportAllocs()
			for b.Loop() {
				r.WaitForReaders(p)
			}
		})
	}
	for _, name := range flavorOrder {
		for _, readers := range []string{"none", "quiescent", "uncovered"} {
			for _, pc := range preds {
				if readers == "uncovered" {
					selective := name == "EER" || name == "DEER" || name == "D" && pc.p.Enumerable()
					if !selective || pc.name == "All" {
						continue // the reader would block the wait
					}
				}
				run(fmt.Sprintf("%s/%s/%s", name, readers, pc.name), engines()[name], readers, pc.p)
			}
		}
	}
	for _, readers := range []string{"none", "quiescent"} {
		for _, pc := range preds[:2] {
			run("D1024/"+readers+"/"+pc.name, func() RCU {
				d := NewD(0)
				d.WaitForReaders(All())
				return d
			}, readers, pc.p)
		}
	}
}
