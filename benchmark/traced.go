package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/trace"
)

// sampleEvery is the program's own collector's rate during the traced half.
const sampleEvery = 8

// spanFileTxns bounds the span file: the per-statement metrics use every
// span, the file keeps each client's first transactions.
const spanFileTxns = 2000

// counters are the layers' public Stats() flattened, so a window's work is
// one subtraction.
type counters map[string]float64

func (k *stack) counters() counters {
	es := k.db.Stats()
	ns := k.net.Stats()
	c := counters{
		"engine.grouped": float64(es.Pipeline.GroupedCommits), "engine.frames": float64(es.Pipeline.Frames),
		"engine.lock_waits": float64(es.Waits),
		"cache.hits":        float64(es.Cache.Hits), "cache.misses": float64(es.Cache.Misses),
		"cache.evictions": float64(es.Cache.Evictions), "cache.overflow": float64(es.Cache.Overflow),
		"volume.records": float64(es.Volume.RecordsWritten), "volume.frames": float64(es.Volume.Frames),
		"volume.log_bytes": float64(es.Volume.LogBytes), "volume.reads": float64(es.Volume.ReadsServed),
		"volume.read_retries": float64(es.Volume.ReadRetries), "volume.write_retries": float64(es.Volume.WriteRetries),
		"volume.hedges": float64(es.Volume.Hedges),
		"net.msgs":      float64(ns.Messages), "net.bytes": float64(ns.Bytes),
	}
	for g := 0; g < k.fleet.PGs(); g++ {
		for _, n := range k.fleet.Replicas(core.PGID(g)) {
			st, ds := n.Stats(), n.Disk().Stats()
			c["storage.records"] += float64(st.RecordsReceived)
			c["storage.reads"] += float64(st.Reads)
			c["storage.coalesced"] += float64(st.PagesCoalesced)
			c["storage.gced"] += float64(st.RecordsGCed)
			c["storage.gossiped"] += float64(st.RecordsGossiped)
			c["storage.held"] += float64(st.RecordsHeld)
			c["disk.writes"] += float64(ds.Writes)
			c["disk.syncs"] += float64(ds.Syncs)
			c["disk.bytes"] += float64(ds.BytesWritten)
		}
	}
	if k.rep != nil {
		rs := k.rep.Stats()
		c["replica.applied"], c["replica.discarded"] = float64(rs.Applied), float64(rs.Discarded)
	}
	if k.store != nil {
		c["objstore.objects"] = float64(k.store.Count())
	}
	return c
}

// commitStage and readStage map the program's span names onto the reported
// critical-path shares; names not listed count as "other".
var commitStage = map[string]string{
	"commit.apply": "apply", "commit.queue": "queue", "group.frame": "frame",
	"group.ship": "ship", "batch.ship": "ship", "replica.flight": "ship", "net.req": "ship", "net.ack": "ship",
	"quorum.wait": "quorum_wait", "storage.ingest": "storage_ingest", "storage.apply": "storage_ingest",
	"disk.write": "disk", "disk.sync": "disk", "vdl.wait": "vdl_wait",
}

var readStage = map[string]string{
	"read.attempt": "attempt", "storage.read": "storage", "net.req": "net", "net.resp": "net",
}

// pathShares attributes the sampled wall time of every finished trace with
// one of the given roots to stages, through the program's own critical-path
// walk, and reports each stage's share in percent.
func pathShares(col *trace.Collector, roots []string, stage map[string]string, names []string, prefix string, m map[string]value) {
	total := time.Duration(0)
	by := make(map[string]time.Duration)
	traces := 0
	for _, t := range col.Traces() {
		si := t.Snapshot()
		if si.End == 0 || !slices.Contains(roots, si.Name) {
			continue
		}
		traces++
		for _, seg := range trace.CriticalPath(si) {
			st, ok := stage[seg.Name]
			if !ok {
				st = "other"
			}
			by[st] += seg.Dur
			total += seg.Dur
		}
	}
	for _, n := range names {
		m[prefix+n+"_share"] = value{Value: 100 * ratio(float64(by[n]), float64(total)), Unit: "%", Samples: traces}
	}
}

// spanDurations returns the sorted durations, in µs, of the named driver span.
func spanDurations(r *run, name string) []float64 {
	var us []float64
	for _, c := range r.clients {
		for i := range c.spans {
			if c.spans[i].Name == name && c.spans[i].End > 0 {
				us = append(us, float64(c.spans[i].End-c.spans[i].Start)/1e3)
			}
		}
	}
	sort.Float64s(us)
	return us
}

// stallWindows counts the 1 s windows in which fewer than half the median
// window's transactions ended.
func stallWindows(r *run, from, to time.Duration) float64 {
	n := int((to - from) / time.Second)
	if n < 2 {
		return 0
	}
	counts := make([]float64, n)
	for _, c := range r.clients {
		for _, s := range c.samples {
			if i := int((s.end - from) / time.Second); s.end >= from && i < n {
				counts[i]++
			}
		}
	}
	half := median(counts) / 2
	stalls := 0.0
	for _, c := range counts {
		if c < half {
			stalls++
		}
	}
	return stalls
}

// traced is the per-layer pass, on a stack assembled by the benchmark so
// that every layer's counters are in reach. The window is two halves: the
// first runs untraced, the second with driver spans and the program's own
// collector on; the throughput difference is the tracing overhead.
func traced(s *spec, p plan, seed int64, outDir string) (*detail, error) {
	p.setups = 1
	r := newRun(s, s.rows/p.rowsDiv, seed)
	if _, err := r.setUp(p, newStackSystem); err != nil {
		return nil, err
	}
	var closeOnce sync.Once
	closeSys := func() { closeOnce.Do(r.sys.close) }
	defer closeSys()
	k := r.sys.stack
	col := k.db.Tracer() // the collector of the writer that serves the window

	var before, after counters
	n := p.slices()
	half := n / 2
	w := r.drive(p, func(i int) {
		if i == 0 {
			before = k.counters()
		}
		if i == half {
			r.spansOn.Store(true)
			col.SetSampleEvery(sampleEvery)
		}
		if i == n {
			after = k.counters()
		}
	})
	first, last := w.first, w.last
	secs, txns := w.seconds(), w.txns()
	ktxn := txns / 1000
	delta := func(name string) float64 { return after[name] - before[name] }

	d := newDetail(s, 1, seed, p)
	m := d.Metrics
	put := func(name, unit string, v float64) { m[name] = value{Value: v, Unit: unit} }

	// Whole transactions, over the whole window.
	var all []float64
	for i := range w.slices {
		all = append(all, w.slices[i].lats...)
	}
	sort.Float64s(all)
	m["engine.txn_us_p99"] = value{Value: quantile(all, 0.99), Unit: "us", Samples: len(all)}
	put("engine.txn_max_ms", "ms", quantile(all, 1)/1e3)
	put("engine.stall_windows", "count", stallWindows(r, first.at, last.at))
	// Client counts cover warm-up too; they are ratios, so that is harmless.
	var attempted, retries, replicaReads, stale, replicaErrs float64
	var lags []float64
	for _, c := range r.clients {
		attempted += float64(c.attempted)
		retries += float64(c.retries)
		replicaReads += float64(c.replicaReads)
		stale += float64(c.staleReads)
		replicaErrs += float64(c.replicaErrs)
		for _, l := range c.lags {
			lags = append(lags, float64(l))
		}
	}
	sort.Float64s(lags)
	put("engine.retries_per_ktxn", "count", ratio(retries, attempted/1000))
	m["replica.lag_lsn_p50"] = value{Value: quantile(lags, 0.50), Unit: "count", Samples: len(lags)}
	put("replica.lag_lsn_p99", "count", quantile(lags, 0.99))
	put("replica.stale_read_share", "ratio", ratio(stale, replicaReads))
	put("replica.read_errors_per_kread", "count", ratio(replicaErrs, replicaReads/1000))

	// Statements, from the driver's spans of the traced half.
	type spanMetric struct {
		name string
		q    float64
	}
	for span, metrics := range map[string][]spanMetric{
		"get":         {{"engine.get_us_p50", 0.50}, {"engine.get_us_p99", 0.99}},
		"put":         {{"engine.put_us_p50", 0.50}},
		"commit":      {{"engine.commit_us_p50", 0.50}, {"engine.commit_us_p99", 0.99}},
		"replica.get": {{"replica.get_us_p50", 0.50}},
	} {
		us := spanDurations(r, span)
		for _, sm := range metrics {
			m[sm.name] = value{Value: quantile(us, sm.q), Unit: "us", Samples: len(us)}
		}
	}

	// Counter deltas over the window.
	put("engine.group_size_mean", "count", ratio(delta("engine.grouped"), delta("engine.frames")))
	put("engine.lock_waits_per_ktxn", "count", ratio(delta("engine.lock_waits"), ktxn))
	put("bufcache.hit_ratio", "ratio", ratio(delta("cache.hits"), delta("cache.hits")+delta("cache.misses")))
	put("bufcache.evictions_per_ktxn", "count", ratio(delta("cache.evictions"), ktxn))
	put("bufcache.overflow_per_ktxn", "count", ratio(delta("cache.overflow"), ktxn))
	put("volume.records_per_txn", "count", ratio(delta("volume.records"), txns))
	put("volume.frames_per_ktxn", "count", ratio(delta("volume.frames"), ktxn))
	put("volume.log_kb_per_txn", "KB", ratio(delta("volume.log_bytes")/1024, txns))
	put("volume.read_retries_per_kread", "count", ratio(delta("volume.read_retries"), delta("volume.reads")/1000))
	put("volume.write_retries_per_ktxn", "count", ratio(delta("volume.write_retries"), ktxn))
	put("volume.hedges_per_kread", "count", ratio(delta("volume.hedges"), delta("volume.reads")/1000))
	put("netsim.msgs_per_txn", "count", ratio(delta("net.msgs"), txns))
	put("netsim.bytes_per_msg", "B", ratio(delta("net.bytes"), delta("net.msgs")))
	put("storage.records_per_txn", "count", ratio(delta("storage.records"), txns))
	put("storage.reads_per_ktxn", "count", ratio(delta("storage.reads"), ktxn))
	put("storage.pages_coalesced_per_s", "1/s", ratio(delta("storage.coalesced"), secs))
	put("storage.records_gced_per_s", "1/s", ratio(delta("storage.gced"), secs))
	put("storage.gossiped_per_ktxn", "count", ratio(delta("storage.gossiped"), ktxn))
	put("storage.records_held_end", "count", after["storage.held"])
	put("disk.writes_per_txn", "count", ratio(delta("disk.writes"), txns))
	put("disk.syncs_per_txn", "count", ratio(delta("disk.syncs"), txns))
	userBytes := txns * float64(s.writes) * float64(valueSize+len(r.keys[0]))
	put("disk.bytes_written_per_user_byte", "ratio", ratio(delta("disk.bytes"), userBytes))
	put("replica.applied_per_txn", "count", ratio(delta("replica.applied"), txns))
	put("replica.discarded_per_txn", "count", ratio(delta("replica.discarded"), txns))
	put("objstore.objects_end", "count", after["objstore.objects"])

	// The program's own collector: critical-path shares of sampled commits
	// and cache-miss reads.
	pathShares(col, []string{"commit"}, commitStage,
		[]string{"apply", "queue", "frame", "ship", "quorum_wait", "storage_ingest", "disk", "vdl_wait", "other"},
		"path.commit.", m)
	// A cache miss is a read.page trace on the writer, replica.read on a replica.
	pathShares(col, []string{"read.page", "replica.read"}, readStage,
		[]string{"attempt", "storage", "net", "other"}, "path.read.", m)

	put("proc.gc_cycles_per_s", "1/s", ratio(float64(last.gcCycles-first.gcCycles), secs))
	put("proc.gc_pause_ms", "ms", float64(last.gcPause-first.gcPause)/1e6)
	// Overhead compares the two halves' quiet-decile throughput, so a burst
	// of interference in one half is not booked as tracing cost.
	tps := metricDef{unit: "1/s", better: higher}
	untraced := quietDecile(w.slices[:half], tps, sliceTPS).Value
	withTrace := quietDecile(w.slices[half:], tps, sliceTPS).Value
	put("trace.overhead_pct", "%", 100*ratio(untraced-withTrace, untraced))

	attemptedOps, failedOps, recoverMS := r.durability(p)
	m["volume.recover_ms"] = value{Value: median(recoverMS), Unit: "ms", Slices: recoverMS}
	r.totals(d, attemptedOps, failedOps)

	// The probes time single layers: the window's cluster, whose background
	// loops tick every 20 ms, must be gone first.
	closeSys()
	probed, err := runProbes(seed, p.probeDiv)
	if err != nil {
		return nil, err
	}
	for name, v := range probed {
		m[name] = v
	}

	d.SpanFile = filepath.Join(outDir, fmt.Sprintf("trace-%s.json", s.name))
	return d, r.writeSpans(d.SpanFile)
}

// writeSpans writes the driver's spans, each client's first spanFileTxns
// transactions, when the run has ended.
func (r *run) writeSpans(path string) error {
	var out []span
	for _, c := range r.clients {
		txns := 0
		for i := range c.spans {
			if c.spans[i].Parent < 0 {
				if txns++; txns > spanFileTxns {
					break
				}
			}
			out = append(out, c.spans[i])
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
