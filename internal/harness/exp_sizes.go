package harness

import (
	"fmt"

	"aurora/internal/disk"
	"aurora/internal/workload"
)

// Table2 reproduces §6.1.2 Table 2: SysBench write-only throughput as the
// database grows past the buffer cache. The paper's DB sizes (1GB → 1TB
// against a 170GB cache) scale here to row counts against a fixed small
// cache; the shape to preserve is that MySQL collapses once the working
// set leaves the cache (every miss is a synchronous EBS read, often behind
// a dirty-page flush) while Aurora degrades far more gently (misses are
// single-segment quorum-free reads and there are no dirty-page writes).
func Table2(s Scale) (*Result, error) {
	// Sizes as multiples of the base row count; the cache is fixed to hold
	// roughly the smallest size.
	sizes := []struct {
		label string
		rows  int
	}{
		{"1 GB", s.Rows / 4},
		{"10 GB", s.Rows},
		{"100 GB", s.Rows * 4},
		{"1 TB", s.Rows * 10},
	}
	// ~30 rows fit per page; the cache comfortably holds the two smaller
	// databases (as the paper's 170GB cache held its 1GB and 10GB sets)
	// and progressively less of the larger ones.
	cache := max(s.Rows/15, 32)

	t := &Table{Header: []string{"DB Size", "Aurora writes/sec", "MySQL writes/sec"}}
	var aFirst, aLast, mFirst, mLast float64
	for i, sz := range sizes {
		mix := workload.SysbenchWriteOnly(sz.rows)
		w := window{rows: sz.rows, valueSize: 100, mix: mix, opts: workload.Options{Clients: s.Clients, Duration: s.Duration, Seed: 21}}
		ares, err := measure(NewAurora, AuroraConfig{PGs: 4, CachePages: cache, Net: benchNet(21 + int64(i)), Disk: disk.FastLocal()}, w, nil)
		if err != nil {
			return nil, err
		}
		mres, err := measure(NewMySQL, MySQLConfig{CachePages: cache, Net: benchNet(121 + int64(i)), Disk: disk.FastLocal(), Checkpoint: 128}, w, nil)
		if err != nil {
			return nil, err
		}
		aRate, mRate := ares.WritesPerSec(mix), mres.WritesPerSec(mix)

		t.Add(sz.label, fmt.Sprintf("%.0f", aRate), fmt.Sprintf("%.0f", mRate))
		if i == 0 {
			aFirst, mFirst = aRate, mRate
		}
		if i == len(sizes)-1 {
			aLast, mLast = aRate, mRate
		}
	}
	return &Result{
		ID: "Table 2", Title: "SysBench write-only throughput vs database size (fixed cache)",
		Table: t,
		Metrics: map[string]float64{
			"aurora_degradation": ratio(aFirst, aLast),
			"mysql_degradation":  ratio(mFirst, mLast),
			"advantage_at_max":   ratio(aLast, mLast),
		},
		Notes: []string{
			"paper: Aurora 107k→41k (2.6x degradation), MySQL 8.4k→1.2k (7x), 34x advantage at 1TB",
		},
	}, nil
}
