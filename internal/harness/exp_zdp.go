package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
	"aurora/internal/workload"
	"aurora/internal/zdp"
)

// Figure12 reproduces §7.4 Figure 12: Zero-Downtime Patching. Client
// sessions run live traffic through the proxy while the engine is patched
// underneath; the patch waits for a transaction-free instant, spools
// session state, swaps the engine, reloads and resumes. The shape to
// preserve: every session survives, no statement fails, and the pause is
// a small bounded blip rather than a 30-second downtime.
func Figure12(s Scale) (*Result, error) {
	au, err := loaded(NewAurora, AuroraConfig{PGs: 4, CachePages: 2048, Net: benchNet(121), Disk: disk.FastLocal()}, s.Rows, 100)
	if err != nil {
		return nil, err
	}
	defer au.Close()
	proxy := zdp.NewProxy(au.DB)

	const sessions = 8
	var stmts, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := proxy.Connect()
			proxy.SetVar(id, "app", fmt.Sprintf("conn-%d", i)) //nolint:errcheck
			rng := newRand(int64(121 + i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := proxy.Exec(id, func(db *engine.DB) error {
					return db.Put(workload.Key(rng.Intn(s.Rows)), []byte("zdp"))
				})
				if err != nil {
					errs.Add(1)
					return
				}
				stmts.Add(1)
			}
		}(i)
	}

	// Let traffic build, patch mid-flight, keep running, then stop.
	time.Sleep(s.Duration / 3)
	gen := 0
	rep, err := proxy.Patch(func(old *engine.DB) (*engine.DB, error) {
		old.Crash()
		gen++
		db, _, err := engine.Recover(context.Background(), au.Fleet, volume.ClientConfig{
			WriterNode: netsim.NodeID(fmt.Sprintf("au-writer-g%d", gen)), WriterAZ: 0,
		}, engine.Config{CachePages: 2048})
		return db, err
	}, 10*time.Second)
	if err == nil {
		time.Sleep(s.Duration / 3)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err // the sessions are back on the old engine, which au.Close closes
	}
	proxy.DB().Close()

	t := &Table{Header: []string{"Metric", "Value"}}
	t.Add("sessions at patch time", fmt.Sprintf("%d", rep.Sessions))
	t.Add("statements executed", fmt.Sprintf("%d", stmts.Load()))
	t.Add("statements failed", fmt.Sprintf("%d", errs.Load()))
	t.Add("engine pause", fmtDur(rep.PauseLatency))
	t.Add("spooled session state", fmt.Sprintf("%d bytes", rep.SpoolBytes))

	return &Result{
		ID: "Figure 12", Title: "Zero-Downtime Patching under live connections",
		Table: t,
		Metrics: map[string]float64{
			"sessions":     float64(rep.Sessions),
			"failed_stmts": float64(errs.Load()),
			"pause_ms":     ms(rep.PauseLatency),
			"stmts":        float64(stmts.Load()),
		},
		Notes: []string{
			"paper: user sessions remain active and oblivious while the engine is patched",
		},
	}, nil
}
