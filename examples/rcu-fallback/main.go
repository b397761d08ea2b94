// rcu-fallback: using PRCU as a drop-in classic RCU via the wildcard
// predicate (§3.1 "RCU fallback"), plus asynchronous grace periods in the
// style of call_rcu (§2.1).
//
// The program keeps a read-mostly configuration snapshot behind an atomic
// pointer. Readers dereference it inside read-side critical sections on a
// wildcard-compatible value; the writer swaps in new snapshots and retires
// old ones through a single-shard prcu.Reclaimer, whose callbacks fire
// only after a covering grace period — without ever blocking the writer.
//
// Run with:
//
//	go run ./examples/rcu-fallback
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prcu"
)

// config is an immutable snapshot; readers must observe a consistent pair.
type config struct {
	version  uint64
	checksum uint64
	retired  *atomic.Bool // flips when the snapshot's memory is "reclaimed"
}

func main() {
	rcu := prcu.NewEER(prcu.Options{})
	rec := prcu.NewReclaimer(rcu, prcu.ReclaimConfig{Shards: 1, FlushDelay: -1})
	defer rec.Close()

	var current atomic.Pointer[config]
	mk := func(v uint64) *config {
		return &config{version: v, checksum: v * 7919, retired: new(atomic.Bool)}
	}
	current.Store(mk(0))

	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		reads     atomic.Int64
		anomalies atomic.Int64
	)
	// Readers use a single wildcard-ish value: there is no natural domain
	// for "the whole config", so value 0 + wildcard waits give exactly
	// classic RCU semantics.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd, err := rcu.Register()
			if err != nil {
				panic(err)
			}
			defer rd.Unregister()
			for !stop.Load() {
				rd.Enter(0)
				c := current.Load()
				// The snapshot must not have been reclaimed while we hold
				// it, and must be internally consistent.
				if c.retired.Load() || c.checksum != c.version*7919 {
					anomalies.Add(1)
				}
				rd.Exit(0)
				reads.Add(1)
			}
		}()
	}

	// The writer publishes new snapshots; each old snapshot is retired
	// asynchronously after a wildcard grace period.
	swaps := 0
	deadline := time.Now().Add(300 * time.Millisecond)
	for v := uint64(1); time.Now().Before(deadline); v++ {
		old := current.Load()
		current.Store(mk(v))
		rec.Defer(prcu.All(), 0, func(err error) {
			if err == nil { // nil: the grace period completed
				old.retired.Store(true)
			}
		})
		swaps++
	}
	rec.Barrier() // all retirements completed their grace periods
	stop.Store(true)
	wg.Wait()

	fmt.Printf("rcu-fallback: %d reads across %d snapshot swaps, %d anomalies (must be 0)\n",
		reads.Load(), swaps, anomalies.Load())
	if anomalies.Load() != 0 {
		panic("a reader observed a retired or torn snapshot")
	}
	fmt.Println("rcu-fallback: wildcard predicate gave classic RCU semantics; async retirement never blocked the writer")
}
