package core

import (
	"sync/atomic"
	"time"

	"prcu/internal/spin"
)

// WaitTuning selects an engine's wait-side back-off discipline — the
// spin→yield→park escalation every wait-for-readers loop runs through
// (see internal/spin.Tuning). The zero value is the default discipline:
// a short spin budget, then scheduler yields with capped bursts, never a
// timed sleep.
//
// Tunings are an actuation surface, not a correctness knob: any tuning
// preserves the PRCU safety property; what changes is where a blocked
// wait spends its time (CPU versus wake-up latency). The adaptive
// controller (internal/adapt, prcu.Autotuner) switches engines between
// the preset ladder below as load changes; operators can also set one
// statically through the WaitTuner interface.
type WaitTuning = spin.Tuning

// The preset escalation ladder, ordered by decreasing CPU appetite.
var (
	// WaitTuningSpin biases toward latency: a long spin budget and short
	// yield bursts keep the waiter hot on its condition. Right when waits
	// are short and cores are plentiful.
	WaitTuningSpin = WaitTuning{SpinBudget: 512, YieldBurst: 4}
	// WaitTuningYield is the default discipline (the zero WaitTuning
	// spelled out): spin briefly, then yield with capped back-off.
	WaitTuningYield = WaitTuning{}
	// WaitTuningPark biases toward CPU relief: a minimal spin budget and,
	// once yielding has not resolved the wait, timed sleeps between
	// checks. Right under stall storms, when burning cores on wedged
	// waits only starves the readers being waited for.
	WaitTuningPark = WaitTuning{SpinBudget: 16, YieldBurst: 32, Park: 100 * time.Microsecond, ParkAfter: 32}
)

// WaitTuner is implemented by every engine in this package: SetWaitTuning
// installs a wait-side back-off discipline at runtime, WaitTuning reads
// the one in force (zero value = default). A wait already blocked on a
// reader keeps the discipline it started that block with; the next blocked
// slot, and every later wait, picks up the new one.
type WaitTuner interface {
	SetWaitTuning(WaitTuning)
	WaitTuning() WaitTuning
}

// tunable is the wait-tuning hook point embedded by every engine (via
// hooks). The zero value is the default discipline at the cost of one
// atomic pointer load per blocked slot (not per back-off step, and none
// for a wait that finds no reader to wait for).
type tunable struct {
	tun atomic.Pointer[spin.Tuning]
}

// SetWaitTuning implements WaitTuner. The zero tuning clears back to the
// package default (and the nil fast path).
func (t *tunable) SetWaitTuning(wt WaitTuning) {
	if wt == (WaitTuning{}) {
		t.tun.Store(nil)
		return
	}
	t.tun.Store(&wt)
}

// WaitTuning implements WaitTuner.
func (t *tunable) WaitTuning() WaitTuning {
	if p := t.tun.Load(); p != nil {
		return *p
	}
	return WaitTuning{}
}

// Every flavor exposes the tuning hook.
var (
	_ WaitTuner = (*EER)(nil)
	_ WaitTuner = (*D)(nil)
	_ WaitTuner = (*DEER)(nil)
	_ WaitTuner = (*TimeRCU)(nil)
	_ WaitTuner = (*URCU)(nil)
	_ WaitTuner = (*TreeRCU)(nil)
	_ WaitTuner = (*DistRCU)(nil)
	_ WaitTuner = (*SRCU)(nil)
	_ WaitTuner = (*Packed)(nil)
)
