package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"prcu/internal/obs"
	"prcu/internal/workload"
)

// monitorRow is one engine's line of the live table: its collector and
// the previous tick's snapshot the next window is computed against.
type monitorRow struct {
	name string
	m    *obs.Metrics
	prev obs.Snapshot
}

// Monitor runs the mixed small-tree workload on every engine
// concurrently for total, rendering a live table of windowed rates
// (obs.Delta between refresh ticks) to cfg.Out: waits/s, section
// entries/s, windowed selectivity, wait p50/p99, section p50 and the
// reclamation backlog. Engines registered in the export plane after the
// monitor started are adopted as new rows on the next tick. On a
// terminal the table redraws in place — re-homing by the previous
// block's height and clearing to the end of the screen, so a changing row
// count cannot leave stale lines — with the name column clamped so narrow
// terminals don't wrap.
// On a pipe each tick appends a block. Engines with an armed flight
// recorder additionally get a blame line naming their top offender
// slots. The engines' collectors are also registered in the export
// plane, so a -serve listener exposes the same run on /metrics while
// the monitor renders it.
func Monitor(cfg Config, total, refresh time.Duration) error {
	cfg.Observe = true
	if refresh <= 0 {
		refresh = time.Second
	}
	engines := cfg.engines()
	threads := cfg.maxThreads()
	cfg.printf("=== live monitor: mixed workload, small tree, %d threads/engine, %v total, %v refresh ===\n",
		threads, total, refresh)

	rows := make([]*monitorRow, 0, len(engines))
	var wg sync.WaitGroup
	errs := make(chan error, len(engines))
	for _, e := range engines {
		r := e.New()
		m := obs.Registered(r.Name())
		if m == nil {
			return fmt.Errorf("bench: engine %s did not register metrics", e.Name)
		}
		m.SetSectionSampleShift(4)
		s := NewCitrusSet(r, e.Domain())
		if err := prefill(s, cfg.SmallKeys); err != nil {
			return err
		}
		m.Reset() // drop prefill-phase traffic
		rows = append(rows, &monitorRow{name: e.Name, m: m})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := runMix(s, workload.Mixed, cfg.SmallKeys, threads, total); err != nil {
				errs <- err
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ticker := time.NewTicker(refresh)
	defer ticker.Stop()
	start, printed := time.Now(), 0
	last := start
	live := isTerminal(cfg.Out)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-ticker.C:
		}
		rows = adoptNewEngines(rows)
		if printed > 0 && live {
			// Re-home by the *previous* block's height and clear to the end
			// of the screen: adopted engines and blame lines change the row
			// count between ticks, and a bare cursor-up would misalign or
			// leave stale tail lines.
			cfg.printf("\033[%dA\033[J", printed)
		}
		now := time.Now()
		printed = renderMonitor(cfg, rows, now.Sub(start), now.Sub(last))
		last = now
	}
	select {
	case err := <-errs:
		return err
	default:
	}
	cfg.printf("\nmonitored %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// adoptNewEngines appends a row for every engine registered in the
// export plane since the last tick, so a monitor started before an
// engine is built still shows it once it is wired up.
func adoptNewEngines(rows []*monitorRow) []*monitorRow {
	known := make(map[string]bool, len(rows))
	for _, r := range rows {
		known[r.name] = true
	}
	for _, name := range obs.RegisteredNames() {
		if known[name] {
			continue
		}
		if m := obs.Registered(name); m != nil {
			rows = append(rows, &monitorRow{name: name, m: m})
		}
	}
	return rows
}

// renderMonitor prints one refresh of the rate table — each row is the
// window since the previous tick — and returns the number of lines
// written (for in-place redraw). The name column is clamped to its
// header width so long engine names cannot wrap a narrow terminal and
// break the in-place redraw arithmetic.
func renderMonitor(cfg Config, rows []*monitorRow, elapsed, window time.Duration) int {
	cfg.printf("%-11.11s %10s %12s %6s %10s %10s %10s %8s\n",
		fmt.Sprintf("t=%s", elapsed.Round(time.Second)),
		"waits/s", "enters/s", "sel", "wait p50", "wait p99", "sect p50", "backlog")
	printed := 1
	for _, r := range rows {
		cur := r.m.Snapshot()
		rt := obs.Delta(r.prev, cur, window)
		r.prev = cur
		cfg.printf("%-11.11s %10s %12s %6.3f %10s %10s %10s %8d\n",
			r.name,
			formatValue(rt.WaitsPerSec), formatValue(rt.EntersPerSec), rt.Selectivity,
			fmtMonNs(rt.WaitP50Ns), fmtMonNs(rt.WaitP99Ns), fmtMonNs(rt.SectionP50Ns),
			rt.ReclaimBacklog)
		printed++
		if len(cur.BlameTop) > 0 {
			line := "  blame:"
			for i, e := range cur.BlameTop {
				if i >= 3 {
					break
				}
				line += fmt.Sprintf(" slot %d %s/%d", e.Slot,
					fmtMonNs(float64(e.TotalNs)), e.Samples)
			}
			cfg.printf("%.76s\n", line)
			printed++
		}
	}
	return printed
}

// fmtMonNs renders a nanosecond quantity at a human scale ("-" when the
// window recorded no samples).
func fmtMonNs(ns float64) string {
	switch {
	case ns == 0:
		return "-"
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func isTerminal(w any) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
