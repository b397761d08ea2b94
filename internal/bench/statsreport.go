package bench

import (
	"prcu/internal/core"
	"prcu/internal/obs"
	"prcu/internal/workload"
)

// Stats runs the mixed small-tree workload once per engine with the
// observability layer attached and dumps each engine's internal metrics:
// the grace-period latency histogram measured inside WaitForReaders,
// predicate selectivity (readers scanned versus waited for), wait
// resolution (spin versus scheduler-yield), D-PRCU drain outcomes, and
// sampled reader critical-section durations. Each engine's metrics are
// also bound in the export registry (under the engine's name) for
// processes that embed this report.
//
// This surfaces the quantities the paper's argument rests on: PRCU's
// selectivity is why its waits are short, and the section-duration
// distribution bounds how long a covered wait can possibly block.
func Stats(cfg Config) error {
	threads := cfg.maxThreads()
	cfg.printf("=== Engine-internal metrics: mixed workload, small tree, %d threads, %v window ===\n",
		threads, cfg.Duration)
	for _, e := range Engines() {
		m := obs.New()
		// The window is short; sample 1 in 16 sections instead of the
		// default 1 in 64 so the duration histogram has some mass.
		m.SetSectionSampleShift(4)
		r := e.New()
		if c, ok := r.(core.MetricsCarrier); ok {
			c.SetMetrics(m)
		}
		s := NewCitrusSet(r, e.Domain())
		if err := prefill(s, cfg.SmallKeys); err != nil {
			return err
		}
		// Drop prefill-phase traffic; report only the measured window.
		m.Reset()
		if _, err := runMix(s, workload.Mixed, cfg.SmallKeys, threads, cfg.Duration); err != nil {
			return err
		}
		obs.Register(e.Name, m)
		m.Snapshot().Dump(cfg.Out, e.Name)
	}
	return nil
}
