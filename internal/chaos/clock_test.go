package chaos

import (
	"sync/atomic"
	"time"

	"prcu/internal/core"
)

// jitterClock is the clock-side fault injector: a seeded share of Now
// calls yield the processor, and a smaller share sleep briefly, before the
// inner clock is read. Like every fault in this package it perturbs only
// timing — the reading is the inner clock's, taken inside the call, so
// monotonicity and cross-thread consistency carry over. Decisions come
// from one shared sequence: deterministic in the count of reads issued.
type jitterClock struct {
	inner              core.Clock
	seed               uint64
	yieldThr, sleepThr uint64
	seq, jitters       atomic.Uint64
}

func newJitterClock(inner core.Clock, seed uint64, yieldP, sleepP float64) *jitterClock {
	return &jitterClock{
		inner:    inner,
		seed:     splitmix64(seed),
		yieldThr: threshold(yieldP),
		sleepThr: threshold(sleepP),
	}
}

// Now implements core.Clock.
func (c *jitterClock) Now() int64 {
	switch x := splitmix64(c.seed ^ c.seq.Add(1)*0x94d049bb133111eb); {
	case x < c.sleepThr:
		c.jitters.Add(1)
		sleep(20 * time.Microsecond)
	case x < c.yieldThr:
		c.jitters.Add(1)
		yield()
	}
	return c.inner.Now()
}
