package bench

import (
	"context"
	"time"

	"prcu"
	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/stats"
)

// InstrumentedRCU wraps an engine and exposes the latency of its
// WaitForReaders calls — the raw material of Figure 6 (per-wait latency
// and total time spent waiting) and the calibration input for Figure 8's
// simulated-wait variants.
//
// When the engine carries the observability hooks (every internal/core
// engine does), the wait latencies come from the engine's own metrics —
// timestamps taken inside WaitForReaders, around exactly the
// grace-period machinery. Engines without hooks fall back to external
// timing of the whole call, the pre-observability behaviour.
type InstrumentedRCU struct {
	inner prcu.RCU
	// met is the metrics attached to inner, nil if inner is not a
	// core.MetricsCarrier.
	met *obs.Metrics
	// ext is the external-timing fallback histogram.
	ext stats.Histogram
}

// NewInstrumented wraps inner, attaching engine-internal metrics when
// the engine supports them.
func NewInstrumented(inner prcu.RCU) *InstrumentedRCU {
	i := &InstrumentedRCU{inner: inner}
	if c, ok := inner.(core.MetricsCarrier); ok {
		i.met = obs.New()
		c.SetMetrics(i.met)
	}
	return i
}

// Name implements prcu.RCU.
func (i *InstrumentedRCU) Name() string { return i.inner.Name() }

// Register implements prcu.RCU.
func (i *InstrumentedRCU) Register() (prcu.Reader, error) { return i.inner.Register() }

// Stats implements prcu.RCU, exposing the attached metrics.
func (i *InstrumentedRCU) Stats() obs.Snapshot {
	if i.met != nil {
		return i.met.Snapshot()
	}
	return i.inner.Stats()
}

// WaitForReaders implements prcu.RCU. With attached metrics the engine
// times itself; otherwise the call is timed here.
func (i *InstrumentedRCU) WaitForReaders(p prcu.Predicate) {
	if i.met != nil {
		i.inner.WaitForReaders(p)
		return
	}
	t0 := time.Now()
	i.inner.WaitForReaders(p)
	i.ext.Record(time.Since(t0).Nanoseconds())
}

// WaitForReadersCtx implements prcu.RCU. With attached metrics the
// engine times itself; otherwise the call is timed here (including
// cancelled waits — an aborted wait still spent that time blocking).
func (i *InstrumentedRCU) WaitForReadersCtx(ctx context.Context, p prcu.Predicate) error {
	if i.met != nil {
		return i.inner.WaitForReadersCtx(ctx, p)
	}
	t0 := time.Now()
	err := i.inner.WaitForReadersCtx(ctx, p)
	i.ext.Record(time.Since(t0).Nanoseconds())
	return err
}

// ResetWaits discards the wait latencies recorded so far (used to drop
// prefill-phase waits from a measurement).
func (i *InstrumentedRCU) ResetWaits() {
	if i.met != nil {
		i.met.Reset()
		return
	}
	i.ext.Reset()
}

// MeanWaitNs returns the mean observed wait latency.
func (i *InstrumentedRCU) MeanWaitNs() float64 {
	if i.met != nil {
		return i.met.Snapshot().WaitNs.MeanNs
	}
	return i.ext.Mean()
}

// TotalWaitNs returns the total nanoseconds spent inside WaitForReaders.
func (i *InstrumentedRCU) TotalWaitNs() int64 {
	if i.met != nil {
		return i.met.Snapshot().WaitNs.SumNs
	}
	return i.ext.Sum()
}
