package core

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu/internal/obs"
	"prcu/internal/tsc"
)

// Torture test in the style of the Linux kernel's rcutorture: readers
// continuously traverse RCU-protected objects while updaters replace
// them and reclaim the old versions after a grace period. Reclamation
// is simulated by a freed flag — an updater sets it only after
// WaitForReaders on a predicate covering the object's value returns, so
// any reader that observes freed==true inside a covering critical
// section has caught the engine violating the grace-period guarantee
// (the moral equivalent of rcutorture's use-after-free poisoning).
//
// The domain is a small array of slots; slot s carries domain value s,
// so Singleton(s) updaters exercise predicate selectivity while a
// wildcard updater exercises the RCU fallback, concurrently.

// tortureSlots is the number of independently updated objects.
const tortureSlots = 8

type tortureObj struct {
	slot  Value
	gen   uint64
	freed atomic.Bool
}

type tortureState struct {
	ptrs [tortureSlots]atomic.Pointer[tortureObj]

	reads    atomic.Uint64
	updates  atomic.Uint64
	failures atomic.Uint64
	failMsg  atomic.Pointer[string]
}

func newTortureState() *tortureState {
	st := &tortureState{}
	for s := range st.ptrs {
		st.ptrs[s].Store(&tortureObj{slot: Value(s)})
	}
	return st
}

func (st *tortureState) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	st.failMsg.CompareAndSwap(nil, &msg)
	st.failures.Add(1)
}

// tortureReader traverses objects inside critical sections, checking
// the freed flag at entry, mid-section and at exit — an object covered
// by our open section must never be reclaimed under us.
func (st *tortureState) tortureReader(r RCU, id int, stop *atomic.Bool) error {
	rd, err := r.Register()
	if err != nil {
		return err
	}
	defer rd.Unregister()
	for i := 0; !stop.Load(); i++ {
		s := (id + i) % tortureSlots
		rd.Enter(Value(s))
		obj := st.ptrs[s].Load()
		if obj.freed.Load() {
			st.fail("reader %d: slot %d object freed at section entry", id, s)
		}
		// Linger briefly so sections overlap concurrent waits.
		for k := 0; k < i%13; k++ {
			if obj.freed.Load() {
				st.fail("reader %d: slot %d object freed mid-section (gen %d)", id, s, obj.gen)
				break
			}
		}
		if obj.freed.Load() {
			st.fail("reader %d: slot %d object freed before section exit", id, s)
		}
		rd.Exit(Value(s))
		st.reads.Add(1)
		if i%32 == 0 {
			runtime.Gosched()
		}
	}
	return nil
}

// tortureUpdater replaces one slot's object and reclaims the old one
// after a grace period on p (which must cover the slot's value).
func (st *tortureState) tortureUpdater(r RCU, s int, p Predicate, stop *atomic.Bool) {
	for gen := uint64(1); !stop.Load(); gen++ {
		old := st.ptrs[s].Load()
		st.ptrs[s].Store(&tortureObj{slot: Value(s), gen: gen})
		r.WaitForReaders(p)
		// Grace period over: no reader entered before the swap can still
		// hold old. Readers entering after the swap load the new object.
		old.freed.Store(true)
		st.updates.Add(1)
	}
}

func runTorture(t *testing.T, r RCU, d time.Duration) {
	st := newTortureState()
	var stop atomic.Bool
	var wg sync.WaitGroup

	const readers = 4
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := st.tortureReader(r, id, &stop); err != nil {
				st.fail("reader %d: %v", id, err)
			}
		}(i)
	}
	// Three singleton updaters on distinct slots plus one wildcard
	// updater cycling the rest: predicates and the RCU fallback torture
	// the same engine at once.
	for _, s := range []int{0, 1, 2} {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st.tortureUpdater(r, s, Singleton(Value(s)), &stop)
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := uint64(1); !stop.Load(); gen++ {
			s := 3 + int(gen)%(tortureSlots-3)
			old := st.ptrs[s].Load()
			st.ptrs[s].Store(&tortureObj{slot: Value(s), gen: gen})
			r.WaitForReaders(All())
			old.freed.Store(true)
			st.updates.Add(1)
		}
	}()

	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		stop.Store(true)
		t.Fatal("torture did not wind down (WaitForReaders liveness failure?)")
	}

	if n := st.failures.Load(); n != 0 {
		t.Fatalf("%d grace-period violations; first: %s", n, *st.failMsg.Load())
	}
	if st.reads.Load() == 0 || st.updates.Load() == 0 {
		t.Fatalf("torture made no progress: %d reads, %d updates",
			st.reads.Load(), st.updates.Load())
	}
	t.Logf("%s: %d reads, %d updates, 0 violations", r.Name(), st.reads.Load(), st.updates.Load())
}

// logicalClockEngines lists the three timestamp engines on the logical
// fetch-add clock (engines builds them on the monotonic one). It ticks
// only when read, so a wait's t0 exceeds the newest section's timestamp by
// exactly one: the blocking test gets no slack from elapsed time.
func logicalClockEngines() map[string]func() RCU {
	return map[string]func() RCU{
		"EER-Logical":  func() RCU { return NewEER(tsc.NewLogical()) },
		"DEER-Logical": func() RCU { return NewDEER(16, tsc.NewLogical()) },
		"Time-Logical": func() RCU { return NewTimeRCU(tsc.NewLogical()) },
	}
}

// TestTorture runs the rcutorture-style workload on every engine. The
// per-engine budget keeps the whole test well under 5s per engine even
// with the race detector on; -short trims it further.
func TestTorture(t *testing.T) {
	d := scaleDur(250*time.Millisecond, 100*time.Millisecond)
	all := engines()
	maps.Copy(all, logicalClockEngines())
	for name, mk := range all {
		t.Run(name, func(t *testing.T) {
			runTorture(t, mk(), d)
		})
	}
}

// TestTortureWithMetrics repeats a short torture run with the
// observability layer attached and the flight recorder armed, checking
// that metrics survive concurrent recording (this is the hook-path race
// test).
func TestTortureWithMetrics(t *testing.T) {
	d := scaleDur(150*time.Millisecond, 60*time.Millisecond)
	for name, r := range meteredEngines() {
		t.Run(name, func(t *testing.T) {
			c := r.(MetricsCarrier)
			c.Metrics().EnableFlightRecorder(1024)
			runTorture(t, r, d)
			s := r.Stats()
			if s.Waits == 0 || s.Enters == 0 {
				t.Fatalf("metrics empty after torture: waits=%d enters=%d", s.Waits, s.Enters)
			}
			if s.FlightLen == 0 {
				t.Fatal("flight recorder empty after torture with it armed")
			}
			// Every wait left a span whose Count is the readers it waited
			// on, so the buffered ones can sum to no more than the total.
			var waited uint64
			for _, sp := range c.Metrics().FlightSnapshot() {
				if sp.Kind != obs.SpanWait || sp.EndNs < sp.StartNs {
					t.Fatalf("unexpected span %+v", sp)
				}
				waited += uint64(sp.Count)
			}
			if waited > s.ReadersWaited {
				t.Fatalf("wait spans count %d readers waited, metrics only %d", waited, s.ReadersWaited)
			}
		})
	}
}
