package main

import (
	"context"
	"sync"

	"prcu"
)

// timedRCU is the decorator every pass wraps its engine in: it times
// each WaitForReaders call on the goroutine that made it. Register is
// not overridden, so readers are the engine's own and the read side of
// an untraced pass runs library code only.
type timedRCU struct {
	prcu.RCU
	p *pass
}

func (t *timedRCU) WaitForReaders(pr prcu.Predicate) {
	t0 := now()
	t.RCU.WaitForReaders(pr)
	t.p.recordWait(t0, now())
}

func (t *timedRCU) WaitForReadersCtx(ctx context.Context, pr prcu.Predicate) error {
	t0 := now()
	err := t.RCU.WaitForReadersCtx(ctx, pr)
	t.p.recordWait(t0, now())
	return err
}

// tracedRCU is the traced pass's decorator: beside timing waits it
// counts the read-side sections opened on every reader it registers. A
// 15-ns Enter/Exit pair cannot carry two 30-ns clock reads, so pairs are
// counted here and costed afterwards at the flavor's isolated
// enter_exit_ns.
type tracedRCU struct {
	timedRCU
	mu      sync.Mutex
	readers []*countingReader
}

func (t *tracedRCU) Register() (prcu.Reader, error) {
	rd, err := t.RCU.Register()
	if err != nil {
		return nil, err
	}
	c := &countingReader{Reader: rd}
	t.mu.Lock()
	t.readers = append(t.readers, c)
	t.mu.Unlock()
	return c, nil
}

// enters sums the sections counted so far. Call it after the pass's
// goroutines have ended.
func (t *tracedRCU) enters() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, c := range t.readers {
		n += c.n
	}
	return n
}

// countingReader counts sections on one reader. The count is plain: a
// Reader belongs to one goroutine at a time, and the total is read only
// after the workers stop. Exit is the embedded reader's own.
type countingReader struct {
	prcu.Reader
	n int64
	_ [48]byte
}

func (c *countingReader) Enter(v prcu.Value) {
	c.n++
	c.Reader.Enter(v)
}

func (c *countingReader) Do(v prcu.Value, fn func()) {
	c.n++
	c.Reader.Do(v, fn)
}

// decorate wraps r for pass p. The second result is nil on an untraced
// pass.
func decorate(r prcu.RCU, p *pass) (prcu.RCU, *tracedRCU) {
	if !p.traced {
		return &timedRCU{RCU: r, p: p}, nil
	}
	t := &tracedRCU{timedRCU: timedRCU{RCU: r, p: p}}
	return t, t
}
