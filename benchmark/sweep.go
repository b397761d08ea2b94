package main

import (
	"sync/atomic"

	"prcu"
)

// sectionWork is the arithmetic a sweep reader does inside each
// section: a fixed count of dependent multiply-adds, about 100 ns on the
// recorded host. A fixed count, not a calibrated time, keeps the work
// identical from run to run.
const sectionWork = 64

func work(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// litmusObj is what the sweep's waiter publishes. The waiter poisons an
// object only after a grace period has passed since it was unpublished,
// so a reader that finds poison inside a section has caught the engine
// letting a wait return too early.
type litmusObj struct {
	_        linePad
	poisoned atomic.Bool
	_        linePad
}

// litmusSlot is where the waiter publishes the current object.
type litmusSlot struct {
	_   linePad
	ptr atomic.Pointer[litmusObj]
	_   linePad
}

// sweepInstance runs one engine flavor's busy phase: a reader looping
// sections beside a waiter looping grace-period cycles.
type sweepInstance struct {
	r      prcu.RCU
	traced *tracedRCU
	reader *sweepReader
	waiter *sweepWaiter
}

// buildSweep returns the busy phase over engine eng. With selective set
// the waiter waits on Singleton(n&1023) and the litmus is off: a wait
// that does not cover the reader's value licenses nothing about it.
func buildSweep(p *pass, eng prcu.RCU, selective bool) *sweepInstance {
	r, tr := decorate(eng, p)
	rd, err := r.Register()
	if err != nil {
		panic(err) // engines are built uncapped
	}
	in := &sweepInstance{r: r, traced: tr}
	pub := new(litmusSlot)
	objs := [2]*litmusObj{{}, {}}
	pub.ptr.Store(objs[0])
	in.reader = &sweepReader{rd: rd, pub: pub, litmus: !selective}
	in.waiter = &sweepWaiter{r: r, raw: eng, pub: pub, objs: objs, selective: selective, n: 1}
	p.waitEvery = sweepTimeEvery
	return in
}

func sweepPart(f prcu.Flavor) func(p *pass) instance {
	return func(p *pass) instance {
		return buildSweep(p, prcu.MustNew(f, prcu.Options{}), false)
	}
}

func (in *sweepInstance) steppers() []stepper { return []stepper{in.reader, in.waiter} }
func (in *sweepInstance) tracer() *tracedRCU  { return in.traced }

func (in *sweepInstance) finish(res *loopResult) (attempted, failed int64, notes []string) {
	in.reader.rd.Unregister()
	return 0, 0, nil
}

func (in *sweepInstance) layers(res *loopResult, a acct) map[string]float64 { return nil }

type sweepReader struct {
	_      linePad
	rd     prcu.Reader
	pub    *litmusSlot
	litmus bool
	i      uint64
	sink   uint64
	_      linePad
}

func (c *sweepReader) step(w *worker) {
	v := c.i & 1023
	c.i++
	t0 := w.begin()
	c.rd.Enter(v)
	o := c.pub.ptr.Load()
	c.sink = work(c.sink, sectionWork)
	bad := o.poisoned.Load()
	c.rd.Exit(v)
	w.end(opRead, t0)
	if c.litmus {
		w.check(!bad)
	}
}

// sweepTimeEvery is how many grace-period cycles the sweep's waiter
// runs per timed one. The fastest engines wait in ~130 ns, which four
// clock reads per cycle would double.
const sweepTimeEvery = 4

// sweepWaiter's operation is one grace-period cycle: publish a fresh
// object, wait for readers, poison the old one. A timed cycle waits
// through the decorated engine, so its wait is logged like any other;
// the rest wait on the engine directly.
type sweepWaiter struct {
	_         linePad
	r, raw    prcu.RCU
	pub       *litmusSlot
	objs      [2]*litmusObj
	selective bool
	n         uint64
	_         linePad
}

func (c *sweepWaiter) step(w *worker) {
	pred := prcu.All()
	if c.selective {
		pred = prcu.Singleton(c.n & 1023)
	}
	fresh := c.objs[c.n&1]
	c.n++
	t0 := w.beginEvery(sweepTimeEvery - 1)
	fresh.poisoned.Store(false)
	old := c.pub.ptr.Swap(fresh)
	if t0 != 0 {
		c.r.WaitForReaders(pred)
	} else {
		c.raw.WaitForReaders(pred)
	}
	old.poisoned.Store(true)
	w.end(opUpdate, t0)
	w.attempted++
}
