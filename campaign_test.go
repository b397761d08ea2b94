package prcu_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prcu"
	"prcu/internal/chaos"
)

// campaignNode is the guarded data: readers check the b == 2*a
// invariant that every published node satisfies, so a torn or
// prematurely freed node is visible as a read-side failure.
type campaignNode struct {
	a, b int64
}

// campaignToken tracks one retirement's callback count: exactly-once
// reclamation means every token ends the campaign at 1.
type campaignToken struct {
	freed atomic.Int32
}

// TestMigrationCampaign is the chaos campaign, per flavor: a live
// workload (pooled reader churn validating guarded data, an update
// flood retiring tracked tokens through a sharded reclaimer) runs on a
// chaos-wrapped engine with wait-hold faults injected. After shutdown
// no guarded read may have seen a violated invariant and every retired
// token must have been reclaimed exactly once.
//
// The campaign once also moved its workload between engines mid-run.
// Each pool and reclaimer is now bound to one engine for life, so it
// audits the same workload on the engine it starts on.
func TestMigrationCampaign(t *testing.T) {
	for _, f := range prcu.Flavors() {
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			campaign(t, f)
		})
	}
}

func campaign(t *testing.T, f prcu.Flavor) {
	inner := prcu.MustNew(f, prcu.Options{})
	eng := chaos.Wrap(inner, chaos.Config{
		Seed:        0xca0_0000 + uint64(len(f)),
		WaitHold:    0.4,
		WaitHoldDur: 2 * time.Millisecond,
	})
	pool := prcu.NewReaderPool(eng)
	rec := prcu.NewReclaimer(eng, prcu.ReclaimConfig{Shards: 2, FlushDelay: -1})

	var cur atomic.Pointer[campaignNode]
	cur.Store(&campaignNode{a: 1, b: 2})
	var (
		tokMu     sync.Mutex
		tokens    []*campaignToken
		badReads  atomic.Int64
		overFrees atomic.Int64
	)
	free := func(v any) {
		if v.(*campaignToken).freed.Add(1) != 1 {
			overFrees.Add(1)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pool.Critical(prcu.Value(g*64+i%64), func() {
					n := cur.Load()
					if n.b != 2*n.a {
						badReads.Add(1)
					}
				})
				if i%128 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cur.Store(&campaignNode{a: i, b: 2 * i})
				tok := &campaignToken{}
				tokMu.Lock()
				tokens = append(tokens, tok)
				tokMu.Unlock()
				rec.Retire(tok, prcu.All(), 16, free)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rec.CloseCtx(ctx); err != nil {
		t.Fatalf("reclaimer close: %v", err)
	}
	pool.Close()

	if n := badReads.Load(); n != 0 {
		t.Fatalf("%d guarded reads saw a violated invariant", n)
	}
	if n := overFrees.Load(); n != 0 {
		t.Fatalf("%d tokens freed more than once", n)
	}
	tokMu.Lock()
	defer tokMu.Unlock()
	lost := 0
	for _, tok := range tokens {
		if tok.freed.Load() != 1 {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d of %d tokens never reclaimed", lost, len(tokens))
	}
	if len(tokens) == 0 {
		t.Fatalf("update flood retired nothing; campaign proved nothing")
	}
}
