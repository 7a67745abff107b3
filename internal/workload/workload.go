// Package workload implements the benchmark drivers the evaluation uses:
// SysBench-style read-only / write-only / OLTP mixes over a keyed table,
// and a TPC-C-like new-order mix with hot-row contention on warehouse and
// district counters (§6.1). The generators target a minimal transactional
// interface satisfied by both the Aurora engine and the MySQL baseline, so
// every experiment runs identical logic against both systems.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/metrics"
)

// Tx is the transactional surface a workload drives.
type Tx interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, val []byte) error
	Delete(key []byte) error
	Scan(from, to []byte, fn func(k, v []byte) bool) error
	Commit() error
	Abort()
}

// DB abstracts the system under test.
type DB interface {
	Begin() Tx
}

// DBFunc adapts a Begin closure to DB.
type DBFunc func() Tx

// Begin implements DB.
func (f DBFunc) Begin() Tx { return f() }

// Of adapts a system's own Begin, which returns its concrete transaction
// type, to DB: the Aurora engine, the MySQL baseline and the public cluster
// all go through this one adapter.
func Of[T Tx](begin func() T) DB { return DBFunc(func() Tx { return begin() }) }

// Key renders the canonical sbtest-style row key.
func Key(i int) []byte { return []byte(fmt.Sprintf("sbtest%010d", i)) }

// KeyDist generates row indices.
type KeyDist interface {
	Next(rng *rand.Rand) int
	Rows() int
}

// Uniform draws keys uniformly over [0, N).
type Uniform struct{ N int }

// Next implements KeyDist.
func (u Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.N) }

// Rows implements KeyDist.
func (u Uniform) Rows() int { return u.N }

// HotSpot draws from a small hot set with probability HotProb — the
// hot-row contention of the TPC-C-style experiments (§6.1.5).
type HotSpot struct {
	N       int
	HotKeys int
	HotProb float64
}

// Next implements KeyDist.
func (h HotSpot) Next(rng *rand.Rand) int {
	if rng.Float64() < h.HotProb {
		return rng.Intn(h.HotKeys)
	}
	return h.HotKeys + rng.Intn(h.N-h.HotKeys)
}

// Rows implements KeyDist.
func (h HotSpot) Rows() int { return h.N }

// Mix describes one transaction template.
type Mix struct {
	// PointReads per transaction.
	PointReads int
	// Writes per transaction.
	Writes int
	// RangeScan rows per transaction (0 disables).
	ScanRows int
	// ValueSize of written values in bytes.
	ValueSize int
	// Dist chooses rows.
	Dist KeyDist
}

// SysbenchWriteOnly mirrors the SysBench write-only profile used by
// Table 1, Table 2 and Figure 7.
func SysbenchWriteOnly(rows int) Mix {
	return Mix{Writes: 1, ValueSize: 100, Dist: Uniform{N: rows}}
}

// SysbenchReadOnly mirrors the read-only profile of Figure 6.
func SysbenchReadOnly(rows int) Mix {
	return Mix{PointReads: 4, Dist: Uniform{N: rows}}
}

// SysbenchOLTP mirrors the mixed OLTP profile of Table 3.
func SysbenchOLTP(rows int) Mix {
	return Mix{PointReads: 4, Writes: 2, ValueSize: 100, Dist: Uniform{N: rows}}
}

// TPCCLike mirrors the Percona TPC-C variant's contention shape: every
// transaction updates a hot warehouse/district counter plus a few uniform
// rows (§6.1.5).
func TPCCLike(rows, warehouses int) Mix {
	return Mix{
		PointReads: 2,
		Writes:     3,
		ValueSize:  100,
		Dist:       HotSpot{N: rows, HotKeys: warehouses, HotProb: 0.35},
	}
}

// Result summarises one run.
type Result struct {
	Transactions uint64
	Errors       uint64
	Retries      uint64
	Elapsed      time.Duration
	Latency      *metrics.Histogram // per-transaction
	ReadLatency  *metrics.Histogram // per point read
	WriteLatency *metrics.Histogram // per write statement
}

// TPS returns transactions per second.
func (r Result) TPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Transactions) / r.Elapsed.Seconds()
}

// WritesPerSec returns write statements per second (Writes per txn × TPS).
func (r Result) WritesPerSec(mix Mix) float64 { return r.TPS() * float64(mix.Writes) }

// ReadsPerSec returns read statements per second.
func (r Result) ReadsPerSec(mix Mix) float64 { return r.TPS() * float64(mix.PointReads) }

// Options controls a run.
type Options struct {
	Clients  int
	Duration time.Duration // run for a duration...
	Txns     int           // ...or a fixed transaction count per client
	Seed     int64
	// MaxRetries bounds lock-timeout retries per transaction.
	MaxRetries int
}

// Load populates the table with the mix's row count before a run.
func Load(db DB, rows, valueSize int) error {
	const batch = 64
	for start := 0; start < rows; start += batch {
		tx := db.Begin()
		for i := start; i < start+batch && i < rows; i++ {
			if err := tx.Put(Key(i), value(rand.New(rand.NewSource(int64(i))), valueSize)); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

func value(rng *rand.Rand, size int) []byte {
	if size <= 0 {
		size = 100
	}
	v := make([]byte, size)
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}

// Run drives the mix against the database with the given concurrency and
// returns aggregate results. Lock-timeout aborts are retried up to
// MaxRetries and counted.
func Run(db DB, mix Mix, opts Options) Result {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Duration <= 0 && opts.Txns <= 0 {
		opts.Txns = 100
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	res := Result{
		Latency:      new(metrics.Histogram),
		ReadLatency:  new(metrics.Histogram),
		WriteLatency: new(metrics.Histogram),
	}
	var txns, errs, retries atomic.Uint64
	stop := make(chan struct{})
	// The clock starts before the stop timer is armed, so a run for a
	// Duration never measures less than it.
	start := time.Now()
	if opts.Duration > 0 {
		timer := time.AfterFunc(opts.Duration, func() { close(stop) })
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(c)*7919))
			for n := 0; ; n++ {
				if opts.Duration > 0 {
					select {
					case <-stop:
						return
					default:
					}
				} else if n >= opts.Txns {
					return
				}
				t0 := time.Now()
				ok := false
				for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
					err := runTxn(db, mix, rng, &res)
					if err == nil {
						ok = true
						break
					}
					retries.Add(1)
				}
				if ok {
					txns.Add(1)
					res.Latency.ObserveDuration(time.Since(t0))
				} else {
					errs.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Transactions = txns.Load()
	res.Errors = errs.Load()
	res.Retries = retries.Load()
	return res
}

// runTxn executes one transaction of the mix.
func runTxn(db DB, mix Mix, rng *rand.Rand, res *Result) error {
	tx := db.Begin()
	for i := 0; i < mix.PointReads; i++ {
		k := Key(mix.Dist.Next(rng))
		t0 := time.Now()
		if _, _, err := tx.Get(k); err != nil {
			tx.Abort()
			return err
		}
		res.ReadLatency.ObserveDuration(time.Since(t0))
	}
	if mix.ScanRows > 0 {
		from := mix.Dist.Next(rng)
		n := 0
		if err := tx.Scan(Key(from), nil, func(k, v []byte) bool {
			n++
			return n < mix.ScanRows
		}); err != nil {
			tx.Abort()
			return err
		}
	}
	for i := 0; i < mix.Writes; i++ {
		k := Key(mix.Dist.Next(rng))
		t0 := time.Now()
		if err := tx.Put(k, value(rng, mix.ValueSize)); err != nil {
			// Lock timeout aborted the transaction already.
			return err
		}
		res.WriteLatency.ObserveDuration(time.Since(t0))
	}
	return tx.Commit()
}
