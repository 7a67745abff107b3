package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"aurora/internal/disk"
	"aurora/internal/mysql"
	"aurora/internal/netsim"
	"aurora/internal/replica"
	"aurora/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runPaced issues single-row timestamped writes at roughly the target rate
// for the window and returns how many committed.
func runPaced(db workload.DB, rows, ratePerSec int, dur time.Duration, seed int64) int {
	interval := time.Second / time.Duration(ratePerSec)
	rng := newRand(seed)
	n := 0
	next := time.Now()
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		next = next.Add(interval)
		tx := db.Begin()
		k := workload.Key(rng.Intn(rows))
		v := strconv.FormatInt(time.Now().UnixNano(), 10)
		if err := tx.Put(k, []byte(v)); err != nil {
			tx.Abort()
			continue
		}
		if tx.Commit() == nil {
			n++
		}
	}
	return n
}

// auroraReplicaLag measures visibility lag on an Aurora replica: a probe
// key is written with the commit wall-clock and the replica is polled
// until it sees that value.
func auroraReplicaLag(au *AuroraStack, r *replica.Replica, probes int) time.Duration {
	var worst time.Duration
	for i := 0; i < probes; i++ {
		want := fmt.Sprintf("probe-%d-%d", i, time.Now().UnixNano())
		if err := au.DB.Put([]byte("lag-probe"), []byte(want)); err != nil {
			continue
		}
		committed := time.Now()
		for {
			v, ok, err := r.Get([]byte("lag-probe"))
			if err == nil && ok && string(v) == want {
				break
			}
			if time.Since(committed) > 2*time.Second {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if lag := time.Since(committed); lag > worst {
			worst = lag
		}
	}
	return worst
}

// Table4 reproduces §6.1.4 Table 4: replica lag as the write rate grows.
// Aurora replicas consume the writer's redo stream and stay within
// milliseconds at every rate; the MySQL binlog replica's single-threaded
// apply falls behind once the primary's parallel rate exceeds its serial
// capacity, and lag explodes to orders of magnitude more.
func Table4(s Scale) (*Result, error) {
	rates := []int{100, 200, 500, 1000}
	t := &Table{Header: []string{"Writes/sec (target)", "Aurora lag", "MySQL lag"}}
	metrics := map[string]float64{}

	for i, rate := range rates {
		aLag, err := table4Aurora(s, rate, int64(i))
		if err != nil {
			return nil, err
		}
		mLag, err := table4MySQL(s, rate, int64(i))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", rate), fmtDur(aLag), fmtDur(mLag))
		metrics[fmt.Sprintf("aurora_lag_ms_at_%d", rate)] = ms(aLag)
		metrics[fmt.Sprintf("mysql_lag_ms_at_%d", rate)] = ms(mLag)
	}
	top := rates[len(rates)-1]
	metrics["lag_ratio_at_max"] = ratio(metrics[fmt.Sprintf("mysql_lag_ms_at_%d", top)],
		metrics[fmt.Sprintf("aurora_lag_ms_at_%d", top)])
	return &Result{
		ID: "Table 4", Title: "Replica lag for SysBench write-only",
		Table: t, Metrics: metrics,
		Notes: []string{
			"paper: Aurora 2.62→5.38ms as load grows 10x; MySQL <1s → 300s",
		},
	}, nil
}

// table4Aurora paces writes at rate on a writer with one replica and
// returns the replica's lag behind it.
func table4Aurora(s Scale, rate int, i int64) (time.Duration, error) {
	au, err := loaded(NewAurora, AuroraConfig{PGs: 4, CachePages: 4096, Net: benchNet(41 + i), Disk: disk.FastLocal()}, s.Rows, 100)
	if err != nil {
		return 0, err
	}
	defer au.Close()
	rep := replica.Attach(au.DB, au.Fleet, replica.Config{Name: "lag-replica", AZ: 1})
	defer rep.Close()
	runPaced(au.WL(), s.Rows, rate, s.Duration, 41)
	return auroraReplicaLag(au, rep, 3), nil
}

// table4MySQL paces writes at rate on a primary, from several clients so
// it can exceed its binlog replica's serial apply rate, and returns the
// replica's lag behind it.
func table4MySQL(s Scale, rate int, i int64) (time.Duration, error) {
	net := netsim.New(benchNet(141 + i))
	prim, err := mysql.New(mysql.Config{Instance: "prim", AZ: 0, Net: net, Disk: disk.FastLocal()})
	if err != nil {
		return 0, err
	}
	defer prim.Close()
	repl, err := mysql.New(mysql.Config{Instance: "repl", AZ: 1, Net: net, Disk: disk.FastLocal()})
	if err != nil {
		return 0, err
	}
	defer repl.Close()
	primWL := workload.Of(prim.Begin)
	if err := workload.Load(primWL, s.Rows, 100); err != nil {
		return 0, fmt.Errorf("load %d rows: %w", s.Rows, err)
	}
	link := prim.AttachReplica(repl)
	defer link.Close()
	var pw sync.WaitGroup
	perClient := max(rate/4, 1)
	for c := 0; c < 4; c++ {
		pw.Add(1)
		go func(c int) {
			defer pw.Done()
			runPaced(primWL, s.Rows, perClient, s.Duration, int64(141+c))
		}(c)
	}
	pw.Wait()
	_, lag, _ := link.Lag()
	link.Drain(5 * time.Second)
	return lag, nil
}

// Figure11 reproduces §6.2.3 Figure 11: the maximum replica lag across
// four Aurora replicas stays bounded in milliseconds under sustained write
// load (the paper's customer saw <20ms where MySQL spiked to 12 minutes).
func Figure11(s Scale) (*Result, error) {
	au, err := loaded(NewAurora, AuroraConfig{PGs: 4, CachePages: 4096, Net: benchNet(111), Disk: disk.FastLocal()}, s.Rows, 100)
	if err != nil {
		return nil, err
	}
	defer au.Close()
	reps := make([]*replica.Replica, 4)
	for i := range reps {
		reps[i] = replica.Attach(au.DB, au.Fleet, replica.Config{
			Name: netsim.NodeID(fmt.Sprintf("fig11-r%d", i)), AZ: netsim.AZ(i % 3),
		})
		defer reps[i].Close()
	}
	// Sustained background write load.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := newRand(111)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := workload.Key(rng.Intn(s.Rows))
			au.DB.Put(k, []byte("fig11")) //nolint:errcheck
		}
	}()
	// Sample max lag across all replicas.
	var worst time.Duration
	samples := 5
	t := &Table{Header: []string{"Sample", "Max lag across 4 replicas"}}
	for i := 0; i < samples; i++ {
		var sampleWorst time.Duration
		for _, r := range reps {
			if lag := auroraReplicaLag(au, r, 1); lag > sampleWorst {
				sampleWorst = lag
			}
		}
		if sampleWorst > worst {
			worst = sampleWorst
		}
		t.Add(fmt.Sprintf("%d", i+1), fmtDur(sampleWorst))
	}
	close(stop)
	wg.Wait()
	return &Result{
		ID: "Figure 11", Title: "Maximum replica lag across 4 Aurora replicas under load",
		Table: t,
		Metrics: map[string]float64{
			"max_lag_ms": ms(worst),
		},
		Notes: []string{"paper: maximum lag across 4 replicas never exceeded 20ms"},
	}, nil
}
