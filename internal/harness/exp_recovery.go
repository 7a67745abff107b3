package harness

import (
	"context"
	"fmt"
	"time"

	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/mysql"
	"aurora/internal/volume"
	"aurora/internal/workload"
)

// RecoveryExperiment reproduces the §4.3 claim: an Aurora database
// recovers "generally under 10 seconds" even when it crashes under heavy
// write load, because redo application lives on the storage fleet and
// recovery only re-establishes durable points and truncates the tail. The
// traditional engine must replay every redo record since its last
// checkpoint while offline, so its recovery time grows with the redo
// backlog. The experiment crashes both engines after increasing amounts of
// post-checkpoint work.
func RecoveryExperiment(s Scale) (*Result, error) {
	backlogs := []int{s.Rows / 8, s.Rows / 2, s.Rows * 2}
	t := &Table{Header: []string{"Txns since checkpoint", "Aurora recovery", "MySQL recovery", "MySQL redo records"}}
	metrics := map[string]float64{}

	var aTimes, mTimes []float64
	for i, n := range backlogs {
		aDur, err := auroraRecovery(s, n, int64(i))
		if err != nil {
			return nil, err
		}
		rep, redo, err := mysqlRecovery(s, n, int64(i))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", n), fmtDur(aDur), fmtDur(rep.Duration), fmt.Sprintf("%d", redo))
		aTimes = append(aTimes, ms(aDur))
		mTimes = append(mTimes, ms(rep.Duration))
	}
	last := len(backlogs) - 1
	metrics["aurora_ms_at_max"] = aTimes[last]
	metrics["mysql_ms_at_max"] = mTimes[last]
	metrics["mysql_growth"] = ratio(mTimes[last], mTimes[0])
	metrics["aurora_growth"] = ratio(aTimes[last], aTimes[0])
	return &Result{
		ID: "Recovery (§4.3)", Title: "Crash recovery time vs redo backlog",
		Table: t, Metrics: metrics,
		Notes: []string{
			"paper: Aurora recovers in <10s even at 100k writes/sec; no redo replay at startup",
			"Aurora recovery time is flat in backlog; ARIES redo grows with it",
		},
	}, nil
}

// auroraRecovery crashes an Aurora writer after n commits and times its
// recovery: complete when the database serves its first read.
func auroraRecovery(s Scale, n int, i int64) (time.Duration, error) {
	au, err := NewAurora(AuroraConfig{PGs: 4, CachePages: 4096, Net: benchNet(61 + i), Disk: disk.FastLocal()})
	if err != nil {
		return 0, err
	}
	defer au.Fleet.Stop()
	for j := 0; j < n; j++ {
		if err := au.DB.Put(workload.Key(j%s.Rows), []byte("recov")); err != nil {
			au.DB.Close()
			return 0, err
		}
	}
	au.DB.Crash()
	start := time.Now()
	db2, _, err := engine.Recover(context.Background(), au.Fleet, volume.ClientConfig{WriterNode: "au-writer2", WriterAZ: 0}, engine.Config{})
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	defer db2.Close()
	if _, _, err := db2.Get(workload.Key(0)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// mysqlRecovery runs n commits on the baseline with checkpoints disabled
// beyond the start, crashes it and times ARIES redo; it also returns the
// redo records the crash left behind.
func mysqlRecovery(s Scale, n int, i int64) (*mysql.RecoveryReport, int, error) {
	my, err := NewMySQL(MySQLConfig{CachePages: 4096, Net: benchNet(161 + i), Disk: disk.FastLocal(), Checkpoint: 1 << 30})
	if err != nil {
		return nil, 0, err
	}
	defer my.Close()
	for j := 0; j < n; j++ {
		if err := my.DB.Put(workload.Key(j%s.Rows), []byte("recov")); err != nil {
			return nil, 0, err
		}
	}
	redo := my.DB.Stats().RedoRecords
	rep, err := my.DB.CrashAndRecover()
	if err != nil {
		return nil, 0, fmt.Errorf("crash and recover: %w", err)
	}
	return rep, redo, nil
}
