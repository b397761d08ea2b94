package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestFlightGating(t *testing.T) {
	m := New()
	if m.FlightEnabled() {
		t.Fatal("recorder armed before EnableFlightRecorder")
	}
	m.FlightRecord(FlightSpan{GP: 1, Kind: SpanWait}) // must be a no-op
	if n := m.FlightLen(); n != 0 {
		t.Fatalf("disabled recorder buffered %d spans", n)
	}
	m.EnableFlightRecorder(32)
	if !m.FlightEnabled() {
		t.Fatal("recorder not armed after EnableFlightRecorder")
	}
	m.FlightRecord(FlightSpan{GP: 1, Kind: SpanWait})
	if n := m.FlightLen(); n != 1 {
		t.Fatalf("FlightLen = %d, want 1", n)
	}
	if got := cap(m.recorder().spans); got != 32 {
		t.Fatalf("ring size = %d, want the armed capacity 32", got)
	}
}

func TestFlightRingWrap(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(16) // the enforced minimum capacity
	for gp := uint64(1); gp <= 40; gp++ {
		m.FlightRecord(FlightSpan{GP: gp, Kind: SpanWait, StartNs: int64(gp)})
	}
	spans := m.FlightSnapshot()
	if len(spans) != 16 {
		t.Fatalf("snapshot has %d spans, want the ring capacity 16", len(spans))
	}
	// Oldest-first: the ring must hold exactly GPs 25..40 in order.
	for i, sp := range spans {
		if want := uint64(25 + i); sp.GP != want {
			t.Fatalf("spans[%d].GP = %d, want %d", i, sp.GP, want)
		}
	}
	// The loss is counted, and Snapshot agrees with the ring about both.
	if s := m.Snapshot(); s.FlightLen != 16 || s.FlightOverwritten != 24 {
		t.Fatalf("FlightLen/FlightOverwritten = %d/%d, want 16/24", s.FlightLen, s.FlightOverwritten)
	}
	m.Reset()
	if s := m.Snapshot(); s.FlightOverwritten != 0 {
		t.Fatalf("Reset left FlightOverwritten = %d", s.FlightOverwritten)
	}
}

// TestFlightSnapshotConcurrent hammers the ring from several writers
// while snapshotting (under -race this checks the mutex discipline):
// every snapshot stays within the ring capacity, holds no zero-Kind
// span, and shows each writer's spans in the order it recorded them.
func TestFlightSnapshotConcurrent(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= 3; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				m.FlightRecord(FlightSpan{GP: id, Kind: SpanWait, Count: n})
			}
		}(uint64(w))
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) && !t.Failed() {
		spans := m.FlightSnapshot()
		if len(spans) > 128 {
			t.Errorf("snapshot longer than ring: %d", len(spans))
		}
		last := map[uint64]int{}
		for i, sp := range spans {
			if sp.Kind == 0 {
				t.Errorf("span %d zero: %+v", i, sp)
			}
			if sp.Count <= last[sp.GP] {
				t.Errorf("span %d: writer %d's count %d after %d", i, sp.GP, sp.Count, last[sp.GP])
			}
			last[sp.GP] = sp.Count
		}
	}
	close(stop)
	wg.Wait()
}

// TestEnableFlightRecorderClampAndPanic covers the capacity guard rails:
// requests clamp into [16, MaxFlightCapacity], non-positive ones panic.
func TestEnableFlightRecorderClampAndPanic(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(MaxFlightCapacity * 4)
	if got := cap(m.recorder().spans); got != MaxFlightCapacity {
		t.Fatalf("clamped ring size = %d, want %d", got, MaxFlightCapacity)
	}
	m.EnableFlightRecorder(1)
	if got := cap(m.recorder().spans); got != 16 {
		t.Fatalf("minimum ring size = %d, want 16", got)
	}
	// The guard must fire even on the nil (disabled) receiver, so a bug
	// does not hide behind observability being off.
	for _, recv := range []*Metrics{m, nil} {
		for _, capacity := range []int{0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("EnableFlightRecorder(%d) on %p did not panic", capacity, recv)
					}
				}()
				recv.EnableFlightRecorder(capacity)
			}()
		}
	}
}

func TestSpanKindString(t *testing.T) {
	for k, want := range map[SpanKind]string{
		SpanRetire: "retire", SpanCoalesce: "coalesce", SpanWait: "wait",
		SpanCallback: "callback", SpanStall: "stall", SpanOverload: "overload",
		SpanKind(0): "?",
	} {
		if got := k.String(); got != want {
			t.Fatalf("SpanKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestPointEventsAreSpans: the hooks that used to feed a second ring
// leave zero-duration spans on their layer's track, readable labels
// instead of packed words, a stall on the GP of the wait it fired in and
// every other event on a GP of its own.
func TestPointEventsAreSpans(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(32)
	wait := m.WaitBeginCtx(WithGP(context.Background(), 99))
	m.StallDetected(wait)
	m.WaitEnd(wait, 4, 2, 1)
	m.ReclaimOverload(OverloadBackpressure, 7)
	m.ReclaimOverload(OverloadInline, 8)

	want := []FlightSpan{
		{GP: 99, Kind: SpanStall, Track: "wait"},
		{GP: 99, Kind: SpanWait, Track: "wait", Count: 2},
		{Kind: SpanOverload, Track: "reclaim", Count: 7, Label: "backpressure"},
		{Kind: SpanOverload, Track: "reclaim", Count: 8, Label: "inline"},
	}
	got := m.FlightSnapshot()
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(got), len(want), got)
	}
	seen := map[uint64]bool{}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Track != w.Track || g.Count != w.Count || g.Label != w.Label {
			t.Errorf("span %d = %+v, want %+v", i, g, w)
		}
		if g.Kind != SpanWait && g.StartNs != g.EndNs {
			t.Errorf("span %d (%v) has a duration: %d..%d", i, g.Kind, g.StartNs, g.EndNs)
		}
		if w.GP != 0 && g.GP != w.GP {
			t.Errorf("span %d GP = %d, want the wait's %d", i, g.GP, w.GP)
		}
		if w.GP == 0 && (g.GP == 0 || seen[g.GP]) {
			t.Errorf("span %d GP = %d, want a fresh non-zero ID", i, g.GP)
		}
		seen[g.GP] = true
	}
	if s := m.Snapshot(); s.Stalls != 1 || s.ReclaimBackpressure != 1 || s.ReclaimInline != 1 {
		t.Errorf("counters did not follow the spans: %+v", s)
	}
}

func TestFlightSnapshotBeforeWrap(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(16)
	for gp := uint64(1); gp <= 3; gp++ {
		m.FlightRecord(FlightSpan{GP: gp})
	}
	spans := m.FlightSnapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.GP != uint64(i+1) {
			t.Fatalf("spans[%d].GP = %d, want %d", i, sp.GP, i+1)
		}
	}
}

func TestTopBlameOrdering(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(32)
	// Blame flows in via wait spans' samples.
	m.FlightRecord(FlightSpan{GP: 1, Kind: SpanWait, Blame: []BlameSample{
		{Slot: 3, DelayNs: 100},
		{Slot: 1, DelayNs: 500},
	}})
	m.FlightRecord(FlightSpan{GP: 2, Kind: SpanWait, Blame: []BlameSample{
		{Slot: 3, DelayNs: 150},
		{Slot: 7, DelayNs: 250}, // ties slot 3's total; lower slot must sort first
	}})
	top := m.TopBlame(0)
	if len(top) != 3 {
		t.Fatalf("TopBlame(0) returned %d entries, want 3", len(top))
	}
	wantOrder := []int{1, 3, 7} // 500 > 250==250 (slot asc)
	for i, e := range top {
		if e.Slot != wantOrder[i] {
			t.Fatalf("TopBlame order: got slot %d at %d, want %d (full: %+v)", e.Slot, i, wantOrder[i], top)
		}
	}
	if top[0].TotalNs != 500 || top[0].Samples != 1 || top[0].MaxNs != 500 {
		t.Errorf("slot 1 aggregate wrong: %+v", top[0])
	}
	if top[1].TotalNs != 250 || top[1].Samples != 2 || top[1].MaxNs != 150 {
		t.Errorf("slot 3 aggregate wrong: %+v", top[1])
	}
	if k1 := m.TopBlame(1); len(k1) != 1 || k1[0].Slot != 1 {
		t.Errorf("TopBlame(1) = %+v, want just slot 1", k1)
	}
}

func TestWithGPRoundTrip(t *testing.T) {
	if gp := GPFromContext(nil); gp != 0 {
		t.Fatalf("GPFromContext(nil) = %d, want 0", gp)
	}
	if gp := GPFromContext(context.Background()); gp != 0 {
		t.Fatalf("GPFromContext(Background) = %d, want 0", gp)
	}
	ctx := WithGP(context.Background(), 99)
	if gp := GPFromContext(ctx); gp != 99 {
		t.Fatalf("GPFromContext after WithGP(99) = %d", gp)
	}
}

func TestNextGPNeverZero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		gp := NextGP()
		if gp == 0 {
			t.Fatal("NextGP minted 0")
		}
		if seen[gp] {
			t.Fatalf("NextGP repeated %d", gp)
		}
		seen[gp] = true
	}
}

// TestWaitSpanEmitsFlight checks the engine-facing path end to end: an
// armed recorder turns a WaitBeginCtx/WaitEnd pair into a wait span
// carrying the context's GP and the blame sampled between them.
func TestWaitSpanEmitsFlight(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(32)
	ctx := WithGP(context.Background(), 1234)
	sp := m.WaitBeginCtx(ctx)
	bs := m.BlameStart(&sp)
	if bs == 0 {
		t.Fatal("BlameStart = 0 with the recorder armed")
	}
	m.BlameSample(&sp, 5, bs)
	m.WaitEnd(sp, 4, 1, 0)

	spans := m.FlightSnapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 wait span", len(spans))
	}
	got := spans[0]
	if got.Kind != SpanWait || got.GP != 1234 || got.Track != "wait" {
		t.Fatalf("wait span = %+v", got)
	}
	if len(got.Blame) != 1 || got.Blame[0].Slot != 5 {
		t.Fatalf("wait span blame = %+v", got.Blame)
	}
	if got.Count != 1 {
		t.Fatalf("wait span count = %d, want waited=1", got.Count)
	}
	// And the aggregation saw the same sample.
	top := m.TopBlame(0)
	if len(top) != 1 || top[0].Slot != 5 {
		t.Fatalf("TopBlame = %+v", top)
	}
}

// TestWaitSpanMintsGP: a wait without a reclaim-provided context still
// gets a fresh non-zero GP so its span is traceable.
func TestWaitSpanMintsGP(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(32)
	sp := m.WaitBegin()
	m.WaitEnd(sp, 1, 0, 0)
	spans := m.FlightSnapshot()
	if len(spans) != 1 || spans[0].GP == 0 {
		t.Fatalf("fast-path wait span missing a minted GP: %+v", spans)
	}
}

func TestFlightResetClears(t *testing.T) {
	m := New()
	m.EnableFlightRecorder(32)
	m.FlightRecord(FlightSpan{GP: 1, Kind: SpanWait, Blame: []BlameSample{{Slot: 2, DelayNs: 10}}})
	m.Reset()
	if m.FlightLen() != 0 {
		t.Fatal("Reset did not clear the span ring")
	}
	if top := m.TopBlame(0); len(top) != 0 {
		t.Fatalf("Reset did not clear blame: %+v", top)
	}
	if !m.FlightEnabled() {
		t.Fatal("Reset disarmed the recorder (it must only clear contents)")
	}
}

func TestBlameStartDisabled(t *testing.T) {
	m := New()
	sp := m.WaitBegin()
	if bs := m.BlameStart(&sp); bs != 0 {
		t.Fatalf("BlameStart = %d with recorder off, want 0", bs)
	}
	m.BlameSample(&sp, 1, 0) // must be a no-op, not a panic
	m.WaitEnd(sp, 1, 1, 0)
	if m.FlightLen() != 0 {
		t.Fatal("disabled recorder recorded a span")
	}
	// And the fully-nil path engines take when built without metrics.
	var nm *Metrics
	var nsp WaitSpan
	if bs := nm.BlameStart(&nsp); bs != 0 {
		t.Fatalf("nil-Metrics BlameStart = %d", bs)
	}
	nm.BlameSample(&nsp, 0, 0)
}
