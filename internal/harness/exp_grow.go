package harness

import (
	"fmt"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/volume"
	"aurora/internal/workload"
)

// GrowExperiment measures §3's claim that Aurora volumes grow by appending
// protection groups without interrupting the workload. One Aurora stack
// starts on 2 PGs; the same OLTP mix runs in three equal windows — before
// the growth, with GrowVolume-equivalent rebalancing racing the middle
// window, and after cutover on the doubled fleet. Growth must complete with
// zero workload errors, and the appended PGs must serve reads afterwards.
func GrowExperiment(s Scale) (*Result, error) {
	// A cache smaller than the working set so the read path reaches the
	// storage fleet and the post-grow window exercises the new PGs.
	cache := max(s.Rows/30, 32)
	au, err := loaded(NewAurora, AuroraConfig{Name: "grow", PGs: 2, CachePages: cache, Net: benchNet(31), Disk: disk.FastLocal()}, s.Rows, 100)
	if err != nil {
		return nil, err
	}
	defer au.Close()
	mix := workload.SysbenchOLTP(s.Rows)
	run := func(seed int64) workload.Result {
		return workload.Run(au.WL(), mix, workload.Options{Clients: s.Clients / 2, Duration: s.Duration, Seed: seed})
	}

	before := run(311)

	// Growth races the middle window: kick the rebalance off a quarter of
	// the way in so cutovers land under load.
	var (
		grep *volume.GrowthReport
		gerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(s.Duration / 4)
		grep, gerr = au.Vol.Grow(2)
	}()
	during := run(312)
	wg.Wait()
	if gerr != nil {
		return nil, fmt.Errorf("grow: %w", gerr)
	}

	after := run(313)
	newReads := func() uint64 {
		var total uint64
		for pg := 2; pg < au.Fleet.PGs(); pg++ {
			for _, n := range au.Fleet.Replicas(core.PGID(pg)) {
				total += n.Reads()
			}
		}
		return total
	}()

	vs := au.Vol.Stats()
	t := &Table{Header: []string{"Phase", "PGs", "TPS", "Txn P95", "Errors"}}
	t.Add("before growth", "2", fmtF(before.TPS()), fmtDur(before.Latency.QuantileDuration(0.95)), fmt.Sprintf("%d", before.Errors))
	t.Add("during growth", "2→4", fmtF(during.TPS()), fmtDur(during.Latency.QuantileDuration(0.95)), fmt.Sprintf("%d", during.Errors))
	t.Add("after growth", "4", fmtF(after.TPS()), fmtDur(after.Latency.QuantileDuration(0.95)), fmt.Sprintf("%d", after.Errors))
	return &Result{
		ID: "Grow", Title: "Live volume growth: PG append + stripe rebalance under load (§3)",
		Table: t,
		Metrics: map[string]float64{
			"before_tps":       before.TPS(),
			"during_tps":       during.TPS(),
			"after_tps":        after.TPS(),
			"during_ratio":     ratio(during.TPS(), before.TPS()),
			"errors":           float64(before.Errors + during.Errors + after.Errors),
			"write_failures":   float64(vs.WriteFailures),
			"stripes_moved":    float64(grep.StripesMoved),
			"pages_copied":     float64(grep.PagesCopied),
			"geometry_epoch":   float64(vs.GeometryEpoch),
			"new_pg_reads":     float64(newReads),
			"rebalance_ms":     ms(grep.Duration),
			"geometry_retries": float64(vs.GeomRetries),
		},
		Notes: []string{
			fmt.Sprintf("rebalance moved %d stripes (%d pages) in %s; geometry epoch %d→%d",
				grep.StripesMoved, grep.PagesCopied, grep.Duration.Round(time.Microsecond), grep.FromEpoch, grep.ToEpoch),
			"paper §3: volumes grow by appending PGs while the database keeps serving",
		},
	}, nil
}
