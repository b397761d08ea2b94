// Package tsc provides the global clocks that back time-based quiescence
// detection (paper §4.1).
//
// The paper reads the x86 timestamp counter, which is architecturally
// guaranteed monotonic and consistent across sockets, and names epoch
// counters as the alternative (§4.1 "Clock implementation"). Go cannot
// issue RDTSC from the standard library, and CLOCK_MONOTONIC (time.Since)
// costs 40–50 ns a read on a 2-vCPU Xeon VM, more than a whole URCU
// Enter+Exit, so the timestamp engines default to Epoch: a counter that
// readers only load and that waiters advance. Every clock in this package
// provides the two properties the correctness proofs need:
//
//  1. monotonicity: successive reads never decrease, and
//  2. cross-thread consistency: if one goroutine's read completes before
//     another's begins, the later read observes a value >= the earlier one.
//
// The quiescence loops only break on a *strictly* greater timestamp, so a
// coarse clock can delay — never corrupt — grace-period detection: a reader
// whose re-entry lands on the same tick as the waiter's start merely keeps
// the waiter waiting until the reader's exit posts infinity.
//
// The two sides of a wait use different methods and lean on different
// properties. A reader's Enter calls Now: it needs a timestamp that a wait
// starting after its prcu_enter cannot undercut — property 2 between the
// reader's read and the waiter's, plus Infinity comparing above
// everything. A waiter calls Tick when the clock has one (Epoch), and Now
// otherwise: it needs only a t0 that no reader's earlier read exceeds —
// any read taken at or after the wait began will do, so the engines take
// it as late as they can: on finding the first reader inside a covered
// critical section, and not at all when there is none. Property 1 is what
// lets a waiter keep polling against the same t0: a reader that re-enters
// later posts a time that can only have grown — with Epoch, strictly
// grown, since the waiter's own Tick moved the epoch past t0. Neither side
// needs the clock to order memory: Logical's and Epoch's fetch-adds happen
// to fence, Monotonic's read does not, and the engines assume the weaker.
//
// Monotonic (CLOCK_MONOTONIC) is the wall clock of the metrics layer, the
// reclaimer and the stall watchdog. A logical fetch-add clock (the
// portable fallback the paper mentions, kept for the clock-source
// ablation) and a manually advanced clock for deterministic tests are also
// provided.
package tsc

import (
	"math"
	"sync/atomic"
	"time"

	"prcu/internal/pad"
)

// Infinity is the timestamp posted by prcu_exit: it compares greater than
// every value any clock returns, encoding "not inside a critical section".
const Infinity int64 = math.MaxInt64

// Clock is a monotonically increasing, cross-thread-consistent time source.
type Clock interface {
	// Now returns the current timestamp. Values are opaque except for
	// ordering; Infinity is reserved and never returned.
	Now() int64
}

// Ticker is a Clock whose waiters advance it: Tick returns a reading and
// moves the clock past it, so every Now that follows Tick returns more.
// The timestamp engines take a wait's t0 with Tick when their clock has
// one, and with Now otherwise.
type Ticker interface {
	Clock
	Tick() int64
}

// Epoch is the waiter-advanced epoch clock, the timestamp engines' default:
// readers Load it and waiters advance it, so a reader's Enter reads no
// hardware clock and writes nothing shared, and a wait that finds no
// covered section writes nothing readers load. Its readings are counts of
// ticks, not nanoseconds.
type Epoch struct {
	// The epoch sits on its own cache line: every reader loads it, and
	// only a waiter that found a covered section writes it.
	e pad.Int64
}

// NewEpoch returns an Epoch clock reading 0.
func NewEpoch() *Epoch { return new(Epoch) }

// Now returns the current epoch: one atomic load.
func (c *Epoch) Now() int64 { return c.e.Load() }

// Tick returns the current epoch and advances it by one, atomically: a
// section that read the epoch before Tick posted at most the returned
// value, and one that reads it after posts more.
func (c *Epoch) Tick() int64 { return c.e.Add(1) - 1 }

// Monotonic reads CLOCK_MONOTONIC: the closest available analogue of the
// paper's TSC, and the wall clock of the metrics layer, the reclaimer and
// the stall watchdog.
type Monotonic struct {
	base time.Time
}

// NewMonotonic returns a Monotonic clock anchored at the current instant.
func NewMonotonic() *Monotonic { return &Monotonic{base: time.Now()} }

// Now returns nanoseconds since the clock was created.
func (c *Monotonic) Now() int64 { return int64(time.Since(c.base)) }

// Logical is a fetch-add software clock: every Now call returns a strictly
// greater value than every call that completed before it. Readers contend on
// one cache line, which is exactly the cost the TSC avoids; it exists for
// the clock-source ablation and as the portable fallback the paper mentions.
type Logical struct {
	c atomic.Int64
}

// NewLogical returns a Logical clock starting at 1.
func NewLogical() *Logical { return new(Logical) }

// Now returns the next tick.
func (c *Logical) Now() int64 { return c.c.Add(1) }

// Manual is a test clock advanced explicitly by the test harness.
type Manual struct {
	c atomic.Int64
}

// NewManual returns a Manual clock reading t.
func NewManual(t int64) *Manual {
	m := new(Manual)
	m.c.Store(t)
	return m
}

// Now returns the manually set time.
func (c *Manual) Now() int64 { return c.c.Load() }

// Advance moves the clock forward by d and returns the new reading.
// Advancing by a negative duration panics: the quiescence proofs require
// monotonicity.
func (c *Manual) Advance(d int64) int64 {
	if d < 0 {
		panic("tsc: Manual clock moved backwards")
	}
	return c.c.Add(d)
}
