package harness

import (
	"fmt"

	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/quorum"
	"aurora/internal/workload"
)

// LogSplitExperiment measures the Taurus-style role split (PAPERS.md:
// Taurus's frugal replication) against the paper's 4/6 scheme at high
// concurrency: the same SysBench OLTP workload at 5x the base client count
// (160 connections at Full scale, Table 3's middle regime) runs once on the
// classic quorum and once with each PG re-roled into a 3-replica
// synchronous log tier plus an asynchronous page tier, both on the NVMe
// disk model (page-write amplification is invisible on zero-latency disks).
//
// What the split buys — and what this experiment asserts, not assumes:
//
//   - Fewer synchronous bytes per commit: the commit path ships redo to 3
//     log replicas instead of 6, so Stats.LogBytes/commit roughly halves.
//     The other half moves off the commit path into the background
//     log→page feed (Stats.PageFeedBytes).
//   - No slower commits: a log replica's ack path is append + fsync and it
//     never materializes pages. A classic replica does materialize, but a
//     storage node writes pages outside the lock its ingest takes, so its
//     acks do not queue behind them either: the two schemes' commit
//     latency and throughput agree within run-to-run noise.
func LogSplitExperiment(s Scale) (*Result, error) {
	conns := s.Clients * 5
	mix := workload.SysbenchOLTP(s.Rows)
	w := window{rows: s.Rows, valueSize: 100, mix: mix, opts: workload.Options{Clients: conns, Duration: s.Duration, Seed: 71}}

	type run struct {
		name          string
		q             quorum.Config
		writesPerSec  float64
		p50ms, p95ms  float64
		syncPerCommit float64
		feedPerCommit float64
	}
	runs := []run{
		{name: "aurora-4/6", q: quorum.Config{}},
		{name: "logsplit-3+3", q: quorum.TaurusMix()},
	}

	for i := range runs {
		r := &runs[i]
		var es engine.Stats
		res, err := measure(NewAurora, AuroraConfig{
			PGs: 4, CachePages: 4096, Net: benchNet(71 + int64(i)),
			Disk: disk.NVMe(), Quorum: r.q,
			// The page tier is fed by the background gossip pull; both
			// configurations run with background loops on so the comparison
			// differs only in the quorum scheme.
			Background: true,
		}, w, func(au *AuroraStack) func() { return func() { es = au.DB.Stats() } })
		if err != nil {
			return nil, err
		}
		r.writesPerSec = res.WritesPerSec(mix)
		// Client-side percentiles: the write-only transaction a connection
		// waits for, commit included.
		r.p50ms = ms(res.Latency.QuantileDuration(0.50))
		r.p95ms = ms(res.Latency.QuantileDuration(0.95))
		if es.Commits > 0 {
			r.syncPerCommit = float64(es.Volume.LogBytes) / float64(es.Commits)
			r.feedPerCommit = float64(es.Volume.PageFeedBytes) / float64(es.Commits)
		}
	}

	t := &Table{Header: []string{"Config", "writes/sec", "commit p50", "commit p95", "sync B/commit", "feed B/commit"}}
	for _, r := range runs {
		t.Add(r.name,
			fmt.Sprintf("%.0f", r.writesPerSec),
			fmt.Sprintf("%.2fms", r.p50ms),
			fmt.Sprintf("%.2fms", r.p95ms),
			fmt.Sprintf("%.0f", r.syncPerCommit),
			fmt.Sprintf("%.0f", r.feedPerCommit))
	}

	base, split := runs[0], runs[1]
	return &Result{
		ID: "LogSplit", Title: fmt.Sprintf("Log/page role split vs 4/6 quorum, %d connections", conns),
		Table: t,
		Metrics: map[string]float64{
			"sync_bytes_ratio": ratio(split.syncPerCommit, base.syncPerCommit),
			"p50_ratio":        ratio(split.p50ms, base.p50ms),
			"p95_ratio":        ratio(split.p95ms, base.p95ms),
			"writes_ratio":     ratio(split.writesPerSec, base.writesPerSec),
			"split_feed_bytes": split.feedPerCommit,
		},
		Notes: []string{
			"split acks commits on 2/3 log replicas; page replicas pull redo asynchronously",
			"expect sync_bytes_ratio ~0.5 and p50/p95/writes ratios near 1 (neither scheme's acks queue behind page writes)",
		},
	}, nil
}
