package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"prcu"
	"prcu/citrus"
	"prcu/internal/workload"
)

// tinyConfig keeps harness tests fast while exercising every code path.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Threads:      []int{1, 2},
		Duration:     10 * time.Millisecond,
		Runs:         1,
		SmallKeys:    512,
		LargeKeys:    1024,
		HashElements: 1 << 10,
		Out:          buf,
	}
}

func TestEnginesLineup(t *testing.T) {
	es := Engines()
	want := []string{
		"EER-PRCU", "D-PRCU", "DEER-PRCU",
		"Time RCU", "Tree RCU", "URCU", "Dist RCU", "SRCU",
		"Packed RCU",
	}
	if len(es) != len(want) {
		t.Fatalf("engine count = %d, want %d", len(es), len(want))
	}
	// The lineup is derived from the flavor registry: every flavor must
	// appear, in registry order, and no bench row may exist without one.
	if flavors := prcu.Flavors(); len(es) != len(flavors) {
		t.Fatalf("lineup has %d engines but Flavors() lists %d", len(es), len(flavors))
	}
	for i, e := range es {
		if e.Name != want[i] {
			t.Fatalf("engine %d = %q, want %q", i, e.Name, want[i])
		}
		r := e.New()
		if r.Name() != e.Name {
			t.Fatalf("constructed engine name %q != spec name %q", r.Name(), e.Name)
		}
	}
}

func TestPrefillReachesTarget(t *testing.T) {
	e := Engines()[0]
	tree := citrus.New(e.New(), e.Domain())
	s := &citrusSet{tree: tree}
	if err := prefill(s, 1000); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 500 {
		t.Fatalf("prefill size = %d, want 500", tree.Size())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunMixProducesThroughput(t *testing.T) {
	e := Engines()[1]
	s := NewCitrusSet(e.New(), e.Domain())
	if err := prefill(s, 512); err != nil {
		t.Fatal(err)
	}
	tp, err := runMix(s, workload.Mixed, 512, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestInstrumentedRecordsWaits(t *testing.T) {
	inst := NewInstrumented(prcu.NewTimeRCU(prcu.Options{}))
	for i := 0; i < 10; i++ {
		inst.WaitForReaders(prcu.All())
	}
	if got := inst.Stats().Waits; got != 10 {
		t.Fatalf("recorded %d waits, want 10", got)
	}
	if inst.MeanWaitNs() <= 0 {
		t.Fatal("mean wait must be positive")
	}
	inst.ResetWaits()
	if got := inst.Stats().Waits; got != 0 {
		t.Fatalf("ResetWaits left %d waits", got)
	}
	inst.WaitForReaders(prcu.All())
	if inst.TotalWaitNs() <= 0 {
		t.Fatal("total wait must be positive")
	}
	rd, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	rd.Enter(1)
	rd.Exit(1)
	rd.Unregister()
	if inst.Name() != "Time RCU" {
		t.Fatal("instrumented wrapper must delegate metadata")
	}
}

func TestSetAdapters(t *testing.T) {
	sets := map[string]Set{
		"citrus": NewCitrusSet(prcu.NewEER(prcu.Options{}), citrus.FuncDomain()),
		"opt":    NewOptTreeSet(),
		"lf":     NewLFTreeSet(),
	}
	for name, s := range sets {
		th, err := s.NewThread()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !th.Insert(5, 50) || th.Insert(5, 51) {
			t.Fatalf("%s: insert semantics", name)
		}
		if !th.Contains(5) || th.Contains(6) {
			t.Fatalf("%s: contains semantics", name)
		}
		if !th.Delete(5) || th.Delete(5) {
			t.Fatalf("%s: delete semantics", name)
		}
		th.Close()
	}
}

func TestFig1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "RCU wait") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFig5And7Run(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	if err := Fig5(cfg, true); err != nil {
		t.Fatal(err)
	}
	if err := Fig7(cfg, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"5(a)", "5(f)", "7(a)", "7(b)", "EER-PRCU", "Opt-Tree", "LF-Tree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "time spent in wait-for-readers") ||
		!strings.Contains(out, "wait-for-readers latency") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestFig8Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "normalized to simulated-wait") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

func TestFig9Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "9(a)") || !strings.Contains(out, "9(b)") || !strings.Contains(out, "geomean") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestAblationRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablation(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter-table size", "nodes per reader", "optimistic waiting", "clock source"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &table{title: "T", unit: "u", columns: []string{"a", "b"}}
	tbl.addRow("1", []float64{1500, 0.5})
	var buf bytes.Buffer
	tbl.write(&buf)
	if !strings.Contains(buf.String(), "1.5k") || !strings.Contains(buf.String(), "0.500") {
		t.Fatalf("table formatting wrong:\n%s", buf.String())
	}
	var csvBuf bytes.Buffer
	tbl.csv(&csvBuf)
	if !strings.Contains(csvBuf.String(), "threads,a,b") || !strings.Contains(csvBuf.String(), "1,1500,0.5") {
		t.Fatalf("csv formatting wrong:\n%s", csvBuf.String())
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{2.5e9, "2.50G"},
		{3.1e6, "3.10M"},
		{1500, "1.5k"},
		{42, "42.0"},
		{0.25, "0.250"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
