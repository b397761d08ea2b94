package obs

import (
	"context"
	"runtime/pprof"
	rttrace "runtime/trace"
)

// Runtime attribution ties the engine's internal phases to Go's own
// diagnostics: execution traces (go tool trace) gain user regions around
// every WaitForReaders and reclaimer flush under a per-engine task, and
// CPU profiles gain pprof labels (prcu_engine, prcu_op) on the
// goroutines executing those phases, so a profile of a loaded process
// attributes grace-period and reclamation time to the engine that spent
// it.
//
// The gate (Metrics.attr) is a single atomic pointer that is nil when
// attribution is off, so every hook costs one pointer load and one
// never-taken branch on the disabled path — the wait path allocates
// nothing and calls nothing extra. Even enabled, the
// label contexts are built once at EnableRuntimeAttribution, so a wait
// performs no per-call allocation (runtime/trace regions are no-ops
// unless an execution trace is actually being collected).
type attrib struct {
	engine string
	task   *rttrace.Task
	// taskCtx carries the per-engine trace task; regions started from it
	// nest under the task in the trace viewer.
	taskCtx context.Context
	// waitCtx / flushCtx are taskCtx plus the pprof label sets for the
	// two attributed phases, precomputed so hooks never build label maps.
	waitCtx  context.Context
	flushCtx context.Context
}

// unlabeled restores an empty goroutine label set at region end.
var unlabeled = context.Background()

// EnableRuntimeAttribution turns on runtime/trace regions and pprof
// labels for this Metrics' engine phases, attributing them to engine
// (usually the RCU.Name()). While a wait or flush is attributed, the
// executing goroutine's pprof labels are replaced with
// {prcu_engine, prcu_op} and cleared afterwards — goroutines that carry
// their own pprof labels across WaitForReaders calls will lose them, so
// the toggle is opt-in (Options.RuntimeAttribution).
func (m *Metrics) EnableRuntimeAttribution(engine string) {
	if m == nil {
		return
	}
	ctx, task := rttrace.NewTask(context.Background(), "prcu:"+engine)
	m.attr.Store(&attrib{
		engine:  engine,
		task:    task,
		taskCtx: ctx,
		waitCtx: pprof.WithLabels(ctx, pprof.Labels(
			"prcu_engine", engine, "prcu_op", "wait")),
		flushCtx: pprof.WithLabels(ctx, pprof.Labels(
			"prcu_engine", engine, "prcu_op", "reclaim-flush")),
	})
}

// DisableRuntimeAttribution turns attribution back off and ends the
// engine's trace task. Waits already in flight finish their regions.
func (m *Metrics) DisableRuntimeAttribution() {
	if m == nil {
		return
	}
	if a := m.attr.Swap(nil); a != nil {
		a.task.End()
	}
}

// AttributionEnabled reports whether runtime attribution is on.
func (m *Metrics) AttributionEnabled() bool { return m != nil && m.attr.Load() != nil }

// WaitSpan is the per-wait handle WaitBegin returns and WaitEnd
// consumes. It travels by value on the waiter's stack — the hook adds no
// allocation to the wait path whether or not attribution is enabled.
type WaitSpan struct {
	// StartNs is the wait's start on the metrics clock.
	StartNs int64
	// region is the open runtime/trace region, nil when attribution is
	// off (or for the zero WaitSpan of a metrics-less wait).
	region *rttrace.Region
	// labeled records that the waiter's goroutine labels were replaced
	// and must be cleared at WaitEnd.
	labeled bool
	// gp / fr are the flight recorder's state: the wait's grace-period ID
	// and the recorder it will report to, both zero when the recorder is
	// off. blame accumulates per-slot BlameSamples as the wait's scan
	// closes them; it only ever allocates with the recorder armed.
	gp    uint64
	fr    *flightRecorder
	blame []BlameSample
}

// ReclaimFlushBegin opens a runtime-attribution region for one reclaimer
// batch flush and labels the flush worker's goroutine; it returns nil
// when attribution (or the Metrics itself) is disabled. The worker
// goroutine belongs to the reclaimer, so its labels may stay sticky
// between flushes without clobbering anyone.
func (m *Metrics) ReclaimFlushBegin() *rttrace.Region {
	if m == nil {
		return nil
	}
	a := m.attr.Load()
	if a == nil {
		return nil
	}
	pprof.SetGoroutineLabels(a.flushCtx)
	return rttrace.StartRegion(a.taskCtx, "prcu:reclaim-flush")
}
