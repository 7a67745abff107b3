package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tick is the cheap state recorded at every slice boundary.
type tick struct {
	at  time.Duration // offset from run.t0
	cpu time.Duration // user+sys of the whole process: the simulated cluster's compute
}

// snapshot adds what is too costly to read every slice (ReadMemStats stops
// the world) and is taken where the window opens and closes.
type snapshot struct {
	tick
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
	netMsgs  uint64
	netBytes uint64
}

func takeTick(r *run) tick {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tick{at: time.Since(r.t0), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func takeSnapshot(r *run) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	msgs, bytes := r.sys.netStats()
	return snapshot{
		tick:    takeTick(r),
		mallocs: ms.Mallocs, allocB: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
		netMsgs: msgs, netBytes: bytes,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// slice is the transactions that ended between two ticks.
type slice struct {
	from, to tick
	lats     []float64 // µs, sorted
}

func (g *slice) seconds() float64 { return (g.to.at - g.from.at).Seconds() }
func (g *slice) txns() float64    { return float64(len(g.lats)) }

// window is one driven run: its slices and the snapshots around them.
type window struct {
	slices      []slice
	first, last snapshot
}

func (w *window) seconds() float64 { return (w.last.at - w.first.at).Seconds() }

func (w *window) txns() float64 {
	n := 0.0
	for i := range w.slices {
		n += w.slices[i].txns()
	}
	return n
}

// drive runs the clients through warm-up and the measured window, ticking
// at every slice boundary. atSlice(i), when given, runs just before the
// tick that opens slice i; i == len(slices) is the end of the window.
func (r *run) drive(p plan, atSlice func(i int)) *window {
	n := p.slices()
	wg := r.start()
	time.Sleep(p.warmup)
	w := &window{slices: make([]slice, n)}
	ticks := make([]tick, n+1)
	for i := range ticks {
		if atSlice != nil {
			atSlice(i)
		}
		switch i {
		case 0:
			w.first = takeSnapshot(r)
			ticks[i] = w.first.tick
		case n:
			w.last = takeSnapshot(r)
			ticks[i] = w.last.tick
		default:
			ticks[i] = takeTick(r)
		}
		if i < n {
			time.Sleep(time.Until(r.t0.Add(p.warmup + time.Duration(i+1)*p.slice)))
		}
	}
	r.stop.Store(true)
	wg.Wait()

	for i := range w.slices {
		w.slices[i].from, w.slices[i].to = ticks[i], ticks[i+1]
	}
	// A client's samples are in time order, so one pass assigns them.
	for _, c := range r.clients {
		i := 0
		for _, s := range c.samples {
			for i < n && s.end >= w.slices[i].to.at {
				i++
			}
			if i == n {
				break
			}
			if s.end >= w.slices[i].from.at {
				w.slices[i].lats = append(w.slices[i].lats, float64(s.lat)/1e3)
			}
		}
	}
	for i := range w.slices {
		sort.Float64s(w.slices[i].lats)
	}
	return w
}

// quantile returns the exact q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quietDecile reports f over the slices as the value a tenth of the way in
// from the quiet end: the 90th percentile when higher is better, the 10th
// when lower is. Interference from the host's other tenants only ever slows
// a slice, and it comes in bursts of seconds: across ten runs the median of
// 500 ms slices spread 16 to 25 % while this decile spread 3 to 9 %
// (README.md, "Steadiness"). Slices in which nothing completed carry no
// latency and are left out. The slice values are kept for the reader.
func quietDecile(slices []slice, def metricDef, f func(*slice) float64) value {
	var vals []float64
	n := 0
	for i := range slices {
		if len(slices[i].lats) == 0 && def.better == lower {
			continue
		}
		vals = append(vals, f(&slices[i]))
		n += len(slices[i].lats)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	q := 0.10
	if def.better == higher {
		q = 0.90
	}
	return value{Value: quantile(sorted, q), Unit: def.unit, Slices: vals, Samples: n}
}

func sliceTPS(g *slice) float64 { return ratio(g.txns(), g.seconds()) }

// setUp builds the system and loads the rows p.setups times, closing all
// but the last, and returns the times. Set-up is repeated because a single
// build+load is short enough for one scheduling hiccup to dominate it.
func (r *run) setUp(p plan, build func(*spec) (*system, error)) ([]float64, error) {
	var times []float64
	for n := 0; n < p.setups; n++ {
		if r.sys != nil {
			r.sys.close()
			runtime.GC()
		}
		t := time.Now()
		sys, err := build(r.spec)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", r.spec.name, err)
		}
		r.sys = sys
		if err := r.load(); err != nil {
			sys.close()
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}

// durability is the check the paper's §4.3 promises: after the window every
// key reads back at its acked version, and again after each writer crash
// and failover. It returns the operations it attempted, the ones that
// failed outright (failover or the first commit), and each cycle's
// crash-to-first-commit time in ms.
func (r *run) durability(p plan) (attempted, failed uint64, recoverMS []float64) {
	attempted += uint64(r.verifyAll("after window"))
	buf := make([]byte, valueSize)
	for n := 0; n < p.recoveries; n++ {
		t := time.Now()
		attempted++
		if err := r.sys.failover(); err != nil {
			r.noteErr("failover", err)
			return attempted, failed + 1, recoverMS
		}
		// The first commit on the new writer updates key 0.
		attempted++
		tx := r.sys.begin()
		fillValue(buf, 0, r.acked[0]+1)
		err := tx.Put(r.keys[0], buf)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			r.noteErr("first_commit", err)
			r.clients[0].uncertain[0] = true
			failed++
		} else {
			r.acked[0]++
			recoverMS = append(recoverMS, float64(time.Since(t))/1e6)
		}
		attempted += uint64(r.verifyAll(fmt.Sprintf("after failover %d", n+1)))
	}
	return attempted, failed, recoverMS
}

// totals sums the clients' counts into the detail.
func (r *run) totals(d *detail, extraAttempted, extraFailed uint64) {
	for _, c := range r.clients {
		d.Attempted += c.attempted
		d.FailedTxns += c.failed
		d.LedgerMismatches += c.ledgerFailures
	}
	d.Attempted += extraAttempted
	d.Failed = d.FailedTxns + d.LedgerMismatches + extraFailed
	d.Correct = d.LedgerMismatches == 0 && extraFailed == 0
	d.FirstErrors = r.firstErr
}

// measure is the untraced pass: the stack a user gets from
// aurora.NewCluster, end-to-end metrics only.
func measure(s *spec, p plan, seed int64) (*detail, error) {
	r := newRun(s, s.rows/p.rowsDiv, seed)
	setups, err := r.setUp(p, newClusterSystem)
	if err != nil {
		return nil, err
	}
	defer func() { r.sys.close() }()

	w := r.drive(p, nil)
	rss := peakRSSMB() // before verification, so the check's own memory does not count
	txns := w.txns()

	d := newDetail(s, 0, seed, p)
	for _, def := range endToEnd {
		var v value
		switch def.name {
		case "setup_s":
			v = value{Value: median(setups), Unit: def.unit, Slices: setups}
		case "txn_per_s":
			v = quietDecile(w.slices, def, sliceTPS)
		case "txn_p50_us":
			v = quietDecile(w.slices, def, func(g *slice) float64 { return quantile(g.lats, 0.50) })
		case "txn_p95_us":
			v = quietDecile(w.slices, def, func(g *slice) float64 { return quantile(g.lats, 0.95) })
		case "cpu_us_per_txn":
			v = quietDecile(w.slices, def, func(g *slice) float64 {
				return ratio(float64(g.to.cpu-g.from.cpu)/1e3, g.txns())
			})
		// Counts do not depend on how fast the host ran: whole-window ratios.
		case "allocs_per_txn":
			v = value{Value: ratio(float64(w.last.mallocs-w.first.mallocs), txns), Unit: def.unit}
		case "alloc_kb_per_txn":
			v = value{Value: ratio(float64(w.last.allocB-w.first.allocB)/1024, txns), Unit: def.unit}
		case "net_msgs_per_txn":
			v = value{Value: ratio(float64(w.last.netMsgs-w.first.netMsgs), txns), Unit: def.unit}
		case "net_kb_per_txn":
			v = value{Value: ratio(float64(w.last.netBytes-w.first.netBytes)/1024, txns), Unit: def.unit}
		case "peak_rss_mb":
			v = value{Value: rss, Unit: def.unit}
		}
		d.Metrics[def.name] = v
	}

	attempted, failed, _ := r.durability(p)
	r.totals(d, attempted, failed)
	return d, nil
}
