package bench

import (
	"fmt"

	"prcu"
	"prcu/citrus"
	"prcu/internal/core"
	"prcu/internal/tsc"
	"prcu/internal/workload"
)

// Ablation sweeps the design parameters the paper fixes in §6 ("PRCU
// parameters") and the optimizations §4 calls out, on the workload where
// they matter most — the write-dominated small tree:
//
//   - D-PRCU counter-table size |C| (paper uses 1024): small tables
//     contend and collide, huge tables only pay cache footprint;
//   - DEER-PRCU per-reader node-array size (paper uses 16);
//   - D-PRCU optimistic waiting on/off (§4.2);
//   - the clock source behind the timestamp engines (the default
//     waiter-advanced epoch vs the TSC-analogue monotonic clock vs the
//     fetch-add logical clock, §4.1).
func Ablation(cfg Config) error {
	threads := cfg.maxThreads()
	mix := workload.WriteDominated
	keys := cfg.SmallKeys

	run := func(mk func() prcu.RCU, dom citrus.Domain) (float64, error) {
		return cfg.medianOf(func() (float64, error) {
			s := NewCitrusSet(mk(), dom)
			if err := prefill(s, keys); err != nil {
				return 0, err
			}
			return runMix(s, mix, keys, threads, cfg.Duration)
		})
	}

	// D-PRCU table size.
	{
		sizes := []int{16, 64, 256, 1024, 4096}
		tbl := &table{
			title:   "Ablation: D-PRCU counter-table size |C| (write-dominated, small tree)",
			unit:    fmt.Sprintf("ops/second at %d threads; paper default |C| = 1024", threads),
			columns: []string{"ops/sec"},
		}
		for _, size := range sizes {
			sz := size
			v, err := run(
				func() prcu.RCU { return core.NewD(sz) },
				citrus.CompressedDomain(uint64(sz)),
			)
			if err != nil {
				return err
			}
			tbl.addRow(fmt.Sprintf("|C|=%d", sz), []float64{v})
		}
		tbl.emit(cfg)
	}

	// DEER-PRCU nodes per reader.
	{
		sizes := []int{4, 16, 64}
		tbl := &table{
			title:   "Ablation: DEER-PRCU nodes per reader (write-dominated, small tree)",
			unit:    fmt.Sprintf("ops/second at %d threads; paper default 16", threads),
			columns: []string{"ops/sec"},
		}
		for _, size := range sizes {
			sz := size
			v, err := run(
				func() prcu.RCU { return core.NewDEER(sz, nil) },
				citrus.CompressedDomain(1024),
			)
			if err != nil {
				return err
			}
			tbl.addRow(fmt.Sprintf("nodes=%d", sz), []float64{v})
		}
		tbl.emit(cfg)
	}

	// D-PRCU optimistic waiting.
	{
		tbl := &table{
			title:   "Ablation: D-PRCU optimistic waiting (write-dominated, small tree)",
			unit:    fmt.Sprintf("ops/second at %d threads", threads),
			columns: []string{"ops/sec"},
		}
		for _, opt := range []struct {
			label  string
			budget int
		}{{"on", 128}, {"off", 0}} {
			budget := opt.budget
			v, err := run(
				func() prcu.RCU {
					d := core.NewD(1024)
					d.SetOptimisticBudget(budget)
					return d
				},
				citrus.CompressedDomain(1024),
			)
			if err != nil {
				return err
			}
			tbl.addRow("optimistic="+opt.label, []float64{v})
		}
		tbl.emit(cfg)
	}

	// Clock source for the timestamp engines (EER here).
	{
		tbl := &table{
			title:   "Ablation: EER-PRCU clock source (write-dominated, small tree)",
			unit:    fmt.Sprintf("ops/second at %d threads; epoch is the default, monotonic the TSC analogue", threads),
			columns: []string{"ops/sec"},
		}
		clocks := []struct {
			label string
			mk    func() core.Clock
		}{
			{"epoch (default)", func() core.Clock { return tsc.NewEpoch() }},
			{"monotonic", func() core.Clock { return tsc.NewMonotonic() }},
			{"logical (fetch-add)", func() core.Clock { return tsc.NewLogical() }},
		}
		for _, c := range clocks {
			mkClock := c.mk
			v, err := run(
				func() prcu.RCU { return core.NewEER(mkClock()) },
				citrus.FuncDomain(),
			)
			if err != nil {
				return err
			}
			tbl.addRow(c.label, []float64{v})
		}
		tbl.emit(cfg)
	}
	return nil
}
