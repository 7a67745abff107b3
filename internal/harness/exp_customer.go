package harness

import (
	"time"

	"aurora/internal/disk"
	"aurora/internal/workload"
)

// migrationPair runs the same "production workload" (§6.2) — an OLTP mix
// at moderate concurrency — before (MySQL) and after (Aurora) the
// migration, as §6.2's customers did.
func migrationPair(s Scale, seed int64) (before, after workload.Result, err error) {
	// A cache far smaller than the working set: the customer's pain was
	// outlier latency on the IO path, which needs misses to surface.
	cache := max(s.Rows/60, 16)
	w := window{rows: s.Rows, valueSize: 120,
		mix:  workload.Mix{PointReads: 3, Writes: 1, ValueSize: 120, Dist: workload.Uniform{N: s.Rows}},
		opts: workload.Options{Clients: s.Clients / 2, Duration: s.Duration, Seed: seed}}
	if before, err = measure(NewMySQL, MySQLConfig{CachePages: cache, Net: benchNet(seed), Disk: disk.FastLocal(), Checkpoint: 24}, w, nil); err != nil {
		return
	}
	after, err = measure(NewAurora, AuroraConfig{PGs: 4, CachePages: cache, Net: benchNet(seed + 100), Disk: disk.FastLocal()}, w, nil)
	return
}

// Figure8 reproduces §6.2.1: the internet gaming company's web transaction
// response time dropped from ~15ms on MySQL to ~5.5ms after migrating to
// Aurora. The reproduction reports mean transaction latency before and
// after the same migration.
func Figure8(s Scale) (*Result, error) {
	before, after, err := migrationPair(s, 81)
	if err != nil {
		return nil, err
	}
	bMean, aMean := time.Duration(before.Latency.Mean()), time.Duration(after.Latency.Mean())
	t := &Table{Header: []string{"Deployment", "Avg response time", "P95"}}
	t.Add("MySQL (before migration)", fmtDur(bMean), fmtDur(before.Latency.QuantileDuration(0.95)))
	t.Add("Aurora (after migration)", fmtDur(aMean), fmtDur(after.Latency.QuantileDuration(0.95)))
	return &Result{
		ID: "Figure 8", Title: "Web application response time across the migration",
		Table: t,
		Metrics: map[string]float64{
			"before_ms":   ms(bMean),
			"after_ms":    ms(aMean),
			"improvement": ratio(ms(bMean), ms(aMean)),
		},
		Notes: []string{"paper: 15ms → 5.5ms average response time (3x)"},
	}, nil
}

// Figure9 reproduces §6.2.2 Figure 9: SELECT latency P50 vs P95. On MySQL
// the P95 sits far above the P50 (cache-miss reads queue behind dirty-page
// flushes, checkpoints and the EBS chain's outliers); on Aurora the P95
// collapses toward the P50.
func Figure9(s Scale) (*Result, error) {
	before, after, err := migrationPair(s, 91)
	if err != nil {
		return nil, err
	}
	t := &Table{Header: []string{"Deployment", "SELECT P50", "SELECT P95", "P95/P50"}}
	bp50, bp95 := before.ReadLatency.QuantileDuration(0.50), before.ReadLatency.QuantileDuration(0.95)
	ap50, ap95 := after.ReadLatency.QuantileDuration(0.50), after.ReadLatency.QuantileDuration(0.95)
	t.Add("MySQL (before)", fmtDur(bp50), fmtDur(bp95), fmtF(ratio(ms(bp95), ms(bp50))))
	t.Add("Aurora (after)", fmtDur(ap50), fmtDur(ap95), fmtF(ratio(ms(ap95), ms(ap50))))
	return &Result{
		ID: "Figure 9", Title: "SELECT latency P50 vs P95 across the migration",
		Table: t,
		Metrics: map[string]float64{
			"mysql_p95_over_p50":  ratio(ms(bp95), ms(bp50)),
			"aurora_p95_over_p50": ratio(ms(ap95), ms(ap50)),
			"p95_improvement":     ratio(ms(bp95), ms(ap95)),
		},
		Notes: []string{"paper: P95 40–80ms vs P50 ~1ms before; P95 ≈ P50 after"},
	}, nil
}

// Figure10 reproduces §6.2.2 Figure 10: per-record INSERT latency P50 vs
// P95 across the migration; the same outlier collapse on the write path.
// A per-record insert is a single-row autocommit transaction, so its
// latency is the full durability path.
func Figure10(s Scale) (*Result, error) {
	w := window{rows: s.Rows, valueSize: 120, mix: workload.SysbenchWriteOnly(s.Rows),
		opts: workload.Options{Clients: s.Clients / 2, Duration: s.Duration, Seed: 101}}
	before, err := measure(NewMySQL, MySQLConfig{CachePages: 1024, Net: benchNet(101), Disk: disk.FastLocal(), Checkpoint: 48}, w, nil)
	if err != nil {
		return nil, err
	}
	after, err := measure(NewAurora, AuroraConfig{PGs: 4, CachePages: 1024, Net: benchNet(201), Disk: disk.FastLocal()}, w, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{Header: []string{"Deployment", "INSERT P50", "INSERT P95", "P95/P50"}}
	bp50, bp95 := before.Latency.QuantileDuration(0.50), before.Latency.QuantileDuration(0.95)
	ap50, ap95 := after.Latency.QuantileDuration(0.50), after.Latency.QuantileDuration(0.95)
	t.Add("MySQL (before)", fmtDur(bp50), fmtDur(bp95), fmtF(ratio(ms(bp95), ms(bp50))))
	t.Add("Aurora (after)", fmtDur(ap50), fmtDur(ap95), fmtF(ratio(ms(ap95), ms(ap50))))
	return &Result{
		ID: "Figure 10", Title: "INSERT per-record latency P50 vs P95 across the migration",
		Table: t,
		Metrics: map[string]float64{
			"mysql_p95_ms":    ms(bp95),
			"aurora_p95_ms":   ms(ap95),
			"p95_improvement": ratio(ms(bp95), ms(ap95)),
		},
		Notes: []string{"paper: P95 latencies improved dramatically and approximated the P50s"},
	}, nil
}
