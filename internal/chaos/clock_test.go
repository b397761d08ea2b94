package chaos

import (
	"sync/atomic"
	"time"

	"prcu/internal/core"
	"prcu/internal/tsc"
)

// jitterClock is the clock-side fault injector: a seeded share of Now and
// Tick calls yield the processor, and a smaller share sleep briefly,
// before the inner clock is read (or ticked). Like every fault in this
// package it perturbs only timing — the reading is the inner clock's,
// taken inside the call, so monotonicity and cross-thread consistency
// carry over. Decisions come from one shared sequence: deterministic in
// the count of reads issued.
type jitterClock struct {
	inner core.Clock
	// tick is the inner clock's Tick, or its Now when it has none: a
	// wait on the jittering clock ticks exactly when it would on the
	// inner one.
	tick               func() int64
	seed               uint64
	yieldThr, sleepThr uint64
	seq, jitters       atomic.Uint64
}

func newJitterClock(inner core.Clock, seed uint64, yieldP, sleepP float64) *jitterClock {
	c := &jitterClock{
		inner:    inner,
		tick:     inner.Now,
		seed:     splitmix64(seed),
		yieldThr: threshold(yieldP),
		sleepThr: threshold(sleepP),
	}
	if t, ok := inner.(tsc.Ticker); ok {
		c.tick = t.Tick
	}
	return c
}

// Now implements core.Clock.
func (c *jitterClock) Now() int64 {
	c.jitter()
	return c.inner.Now()
}

// Tick implements tsc.Ticker, forwarding to the inner clock's tick.
func (c *jitterClock) Tick() int64 {
	c.jitter()
	return c.tick()
}

// jitter takes the next decision off the shared sequence.
func (c *jitterClock) jitter() {
	switch x := splitmix64(c.seed ^ c.seq.Add(1)*0x94d049bb133111eb); {
	case x < c.sleepThr:
		c.jitters.Add(1)
		sleep(20 * time.Microsecond)
	case x < c.yieldThr:
		c.jitters.Add(1)
		yield()
	}
}
