package core

import (
	"testing"
	"time"

	"prcu/internal/obs"
)

// meteredEngines builds every engine with a fresh Metrics attached.
func meteredEngines() map[string]RCU {
	out := map[string]RCU{}
	for name, mk := range engines() {
		r := mk()
		m := obs.New()
		m.SetSectionSampleShift(0) // sample every section in tests
		m.EnsureReaders(r.(SlotCapacitor).SlotCapacity())
		r.(MetricsCarrier).SetMetrics(m)
		out[name] = r
	}
	return out
}

// TestMetricsRecordedByEveryEngine drives each engine through critical
// sections and waits and checks the observability hooks fired: wait
// count and latency, readers scanned, section samples, and — where a
// reader was open across the wait — a nonzero waited count.
func TestMetricsRecordedByEveryEngine(t *testing.T) {
	for name, r := range meteredEngines() {
		t.Run(name, func(t *testing.T) {
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				rd.Enter(Value(i))
				rd.Exit(Value(i))
			}
			for i := 0; i < 5; i++ {
				r.WaitForReaders(All())
			}
			rd.Unregister()

			s := r.Stats()
			if !s.Enabled {
				t.Fatal("Stats() reports disabled with metrics attached")
			}
			if s.Waits != 5 {
				t.Fatalf("Waits = %d, want 5", s.Waits)
			}
			if s.WaitNs.Count != 5 {
				t.Fatalf("WaitNs.Count = %d, want 5", s.WaitNs.Count)
			}
			if s.Enters != 10 {
				t.Fatalf("Enters = %d, want 10", s.Enters)
			}
			if s.SectionNs.Count != 10 {
				t.Fatalf("SectionNs.Count = %d, want 10 (sampling every section)", s.SectionNs.Count)
			}
			if s.ReadersScanned == 0 {
				t.Fatal("ReadersScanned = 0 after five waits")
			}
		})
	}
}

// TestMetricsCountWaitedReaders holds a critical section open across a
// wait and checks the engine accounted for actually waiting.
func TestMetricsCountWaitedReaders(t *testing.T) {
	for name, r := range meteredEngines() {
		t.Run(name, func(t *testing.T) {
			rd, err := r.Register()
			if err != nil {
				t.Fatal(err)
			}
			entered := make(chan struct{})
			release := make(chan struct{})
			exited := make(chan struct{})
			go func() {
				rd.Enter(3)
				close(entered)
				<-release
				rd.Exit(3)
				close(exited)
			}()
			<-entered
			returned := make(chan struct{})
			go func() {
				r.WaitForReaders(All())
				close(returned)
			}()
			// Give the wait time to start scanning and block on the open
			// section, then release the reader so it can finish.
			select {
			case <-returned:
				t.Fatal("WaitForReaders returned with a covered section open")
			case <-time.After(30 * time.Millisecond):
			}
			close(release)
			<-returned
			<-exited
			rd.Unregister()

			s := r.Stats()
			if s.Waits != 1 {
				t.Fatalf("Waits = %d, want 1", s.Waits)
			}
			if s.ReadersWaited == 0 && s.DrainsOptimistic+s.DrainsGate+s.DrainsPiggyback == 0 {
				t.Fatal("wait blocked on an open section but recorded neither a waited reader nor a drain")
			}
			if s.Selectivity < 0 || s.Selectivity > 1 {
				t.Fatalf("Selectivity = %v out of [0,1]", s.Selectivity)
			}
		})
	}
}

// TestMetricsSharedAcrossEngines checks that one Metrics can serve
// several engines, merging their numbers, and that their waits land in
// its flight recorder as time-ordered SpanWait spans.
func TestMetricsSharedAcrossEngines(t *testing.T) {
	m := obs.New()
	m.EnsureReaders(4)
	m.EnableFlightRecorder(256)
	a := NewEER(nil)
	b := NewTimeRCU(nil)
	a.SetMetrics(m)
	b.SetMetrics(m)

	ra, _ := a.Register()
	ra.Enter(1)
	ra.Exit(1)
	ra.Unregister()
	a.WaitForReaders(All())
	b.WaitForReaders(All())

	s := m.Snapshot()
	if s.Waits != 2 {
		t.Fatalf("shared metrics saw %d waits, want 2", s.Waits)
	}
	spans := m.FlightSnapshot()
	if len(spans) != 2 {
		t.Fatalf("flight recorder holds %d spans, want the 2 waits: %+v", len(spans), spans)
	}
	for i, sp := range spans {
		// The reader had exited before either wait began.
		if sp.Kind != obs.SpanWait || sp.Count != 0 || sp.GP == 0 {
			t.Fatalf("span %d = %+v, want a wait on no readers with a minted GP", i, sp)
		}
		if sp.EndNs < sp.StartNs || (i > 0 && sp.StartNs < spans[i-1].EndNs) {
			t.Fatal("wait spans out of time order")
		}
	}
}

// TestNopEngineStats checks the unsafe no-op engine still satisfies the
// Stats surface (returning a disabled snapshot without metrics).
func TestNopEngineStats(t *testing.T) {
	n := NewNop()
	if s := n.Stats(); s.Enabled {
		t.Fatal("bare Nop must report disabled stats")
	}
	sim := NewSimulated(NewEER(nil), 0)
	if s := sim.Stats(); s.Enabled {
		t.Fatal("Simulated over a bare engine must report disabled stats")
	}
}
