package chaos

import (
	"runtime"
	"time"

	"aurora/internal/engine"
)

// watchVDL samples the volume durable LSN and counts regressions: VDL is
// the engine's externally visible durability promise and must never move
// backwards, faults or not. The returned stop joins the watcher and
// reports the violation count.
func watchVDL(db *engine.DB) (stop func() int) {
	done := make(chan struct{})
	out := make(chan int, 1)
	go func() {
		regressions := 0
		last := db.VDL()
		t := time.NewTicker(sampleInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				out <- regressions
				return
			case <-t.C:
				v := db.VDL()
				if v < last {
					regressions++
				}
				last = v
			}
		}
	}()
	return func() int {
		close(done)
		return <-out
	}
}

// settleGoroutines waits for the goroutine count to stop moving and
// returns it — the baseline/after pair around a scenario is the leak
// check: every goroutine a scenario spawns (background storage loops,
// hedged reads, detached commits, growth rebalancers) must be gone once
// its stack is torn down.
func settleGoroutines() int {
	prev := -1
	for i := 0; i < 50; i++ {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
		time.Sleep(10 * time.Millisecond)
	}
	return prev
}
