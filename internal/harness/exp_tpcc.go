package harness

import (
	"fmt"
	"time"

	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/workload"
)

// Table5 reproduces §6.1.5 Table 5: throughput (tpmC-style, transactions
// per minute) on a TPC-C-like mix with hot-row contention, across a grid
// of connection counts and database sizes. Every transaction updates a hot
// warehouse/district counter; under MySQL the hot row's lock is held
// across the serialized synchronous flush, so contention collapses
// throughput, while Aurora's shorter, asynchronous commits keep the hot
// lock hot — the paper reports 2.3x–16.3x advantages.
func Table5(s Scale) (*Result, error) {
	grid := []struct {
		label      string
		clients    int
		rows       int
		warehouses int
	}{
		{"500/10GB/100", s.Clients, s.Rows, 10},
		{"5000/10GB/100", s.Clients * 4, s.Rows, 10},
		{"500/100GB/1000", s.Clients, s.Rows * 4, 40},
		{"5000/100GB/1000", s.Clients * 4, s.Rows * 4, 40},
	}
	t := &Table{Header: []string{"Conns/Size/WH", "Aurora tpmC", "MySQL tpmC", "Ratio"}}
	minRatio, maxRatio, sumRatio := 0.0, 0.0, 0.0

	for i, g := range grid {
		w := window{rows: g.rows, valueSize: 100, mix: workload.TPCCLike(g.rows, g.warehouses),
			opts: workload.Options{Clients: g.clients, Duration: s.Duration, Seed: 51, MaxRetries: 2}}
		ares, err := measure(NewAurora, AuroraConfig{
			PGs: 4, CachePages: 2048, Net: benchNet(51 + int64(i)), Disk: disk.FastLocal(),
			Engine: engine.Config{LockTimeout: 150 * time.Millisecond},
		}, w, nil)
		if err != nil {
			return nil, err
		}
		mres, err := measure(NewMySQL, MySQLConfig{
			CachePages: 2048, Net: benchNet(151 + int64(i)), Disk: disk.FastLocal(),
			LockTimeout: 150 * time.Millisecond, Checkpoint: 96,
		}, w, nil)
		if err != nil {
			return nil, err
		}
		aTpm, mTpm := ares.TPS()*60, mres.TPS()*60

		r := ratio(aTpm, mTpm)
		sumRatio += r
		if minRatio == 0 || r < minRatio {
			minRatio = r
		}
		if r > maxRatio {
			maxRatio = r
		}
		t.Add(g.label, fmt.Sprintf("%.0f", aTpm), fmt.Sprintf("%.0f", mTpm), fmtF(r))
	}
	return &Result{
		ID: "Table 5", Title: "Percona TPC-C-variant throughput under hot-row contention",
		Table: t,
		Metrics: map[string]float64{
			"min_ratio":  minRatio,
			"max_ratio":  maxRatio,
			"mean_ratio": sumRatio / float64(len(grid)),
		},
		Notes: []string{
			"paper: Aurora sustains 2.3x–16.3x MySQL 5.7 across the grid",
		},
	}, nil
}
