package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"prcu/internal/pad"
)

func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.EnsureReaders(8)
	if m.Lane(3) != nil {
		t.Fatal("nil Metrics must hand out nil lanes")
	}
	m.Reset()
	m.EnableFlightRecorder(128)
	if m.FlightEnabled() {
		t.Fatal("nil Metrics cannot arm the flight recorder")
	}
	m.StallDetected(WaitSpan{})
	m.ReclaimOverload(OverloadInline, 1)
	if spans := m.FlightSnapshot(); spans != nil {
		t.Fatalf("nil Metrics returned %d spans", len(spans))
	}
	s := m.Snapshot()
	if s.Enabled {
		t.Fatal("nil Metrics snapshot must report Enabled=false")
	}
}

func TestLanesAreStable(t *testing.T) {
	m := New()
	m.EnsureReaders(4)
	l2 := m.Lane(2)
	// Growing must not move existing lanes.
	m.EnsureReaders(64)
	if m.Lane(2) != l2 {
		t.Fatal("lane moved when the table grew")
	}
	// Lane grows the table on demand past EnsureReaders.
	if m.Lane(100) == nil {
		t.Fatal("Lane must grow the table on demand")
	}
}

func TestWaitAccounting(t *testing.T) {
	m := New()
	start := m.WaitBegin()
	m.WaitEnd(start, 10, 3, 1)
	start = m.WaitBegin()
	m.WaitEnd(start, 10, 1, 0)

	s := m.Snapshot()
	if !s.Enabled {
		t.Fatal("snapshot of a live Metrics must be enabled")
	}
	if s.Waits != 2 || s.ReadersScanned != 20 || s.ReadersWaited != 4 || s.Parks != 1 {
		t.Fatalf("got waits=%d scanned=%d waited=%d parks=%d",
			s.Waits, s.ReadersScanned, s.ReadersWaited, s.Parks)
	}
	if s.SpinResolved != 3 {
		t.Fatalf("spin-resolved = %d, want 3", s.SpinResolved)
	}
	if want := 4.0 / 20.0; s.Selectivity != want {
		t.Fatalf("selectivity = %v, want %v", s.Selectivity, want)
	}
	if s.WaitNs.Count != 2 || s.WaitNs.SumNs < 0 {
		t.Fatalf("wait histogram count = %d, want 2", s.WaitNs.Count)
	}
}

func TestSectionSampling(t *testing.T) {
	m := New()
	m.SetSectionSampleShift(2) // sample 1 in 4
	l := m.Lane(0)
	const n = 64
	for i := 0; i < n; i++ {
		l.OnEnter()
		l.OnExit()
	}
	s := m.Snapshot()
	if s.Enters != n {
		t.Fatalf("enters = %d, want %d", s.Enters, n)
	}
	if s.SectionNs.Count != n/4 {
		t.Fatalf("sampled %d sections, want %d", s.SectionNs.Count, n/4)
	}
}

func TestDrainCounts(t *testing.T) {
	m := New()
	m.DrainCounts(5, 2, 1)
	m.DrainCounts(1, 0, 0)
	s := m.Snapshot()
	if s.DrainsOptimistic != 6 || s.DrainsGate != 2 || s.DrainsPiggyback != 1 {
		t.Fatalf("drains = %d/%d/%d", s.DrainsOptimistic, s.DrainsGate, s.DrainsPiggyback)
	}
}

func TestReset(t *testing.T) {
	m := New()
	l := m.Lane(0)
	l.OnEnter()
	l.OnExit()
	m.WaitEnd(m.WaitBegin(), 4, 2, 1)
	m.DrainCounts(1, 1, 1)
	m.Reset()
	s := m.Snapshot()
	if s.Waits != 0 || s.Enters != 0 || s.ReadersScanned != 0 || s.DrainsGate != 0 ||
		s.WaitNs.Count != 0 || s.SectionNs.Count != 0 {
		t.Fatalf("Reset left state behind: %+v", s)
	}
}

// TestGatesOffWaiterLines pins the layout the hooks rely on: the two
// recorder gates every wait loads sit a full cache line past the last
// padded counter's value, so no hook's write invalidates them.
func TestGatesOffWaiterLines(t *testing.T) {
	var m Metrics
	last := unsafe.Offsetof(m.retiredEnters)
	for name, off := range map[string]uintptr{
		"attr": unsafe.Offsetof(m.attr), "flight": unsafe.Offsetof(m.flight),
	} {
		if off < last+pad.CacheLineSize {
			t.Errorf("%s at offset %d shares a line with retiredEnters at %d", name, off, last)
		}
	}
}

func TestSnapshotJSONAndDump(t *testing.T) {
	m := New()
	m.SetSectionSampleShift(0)
	l := m.Lane(0)
	l.OnEnter()
	l.OnExit()
	m.WaitEnd(m.WaitBegin(), 2, 1, 0)
	m.DrainCounts(1, 0, 0)

	s := m.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\"Waits\":1") {
		t.Fatalf("JSON missing wait count: %s", b)
	}

	var sb strings.Builder
	s.Dump(&sb, "test-engine")
	out := sb.String()
	for _, want := range []string{"test-engine", "selectivity", "1 waits", "counter drains"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	var sb2 strings.Builder
	Snapshot{}.Dump(&sb2, "off")
	if !strings.Contains(sb2.String(), "disabled") {
		t.Fatal("disabled snapshot dump must say so")
	}
}
