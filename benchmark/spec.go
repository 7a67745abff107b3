package main

import (
	"runtime"
	"time"

	"aurora"
)

// spec is one workload. Both passes configure their stack from opts, so the
// measured aurora.Cluster and the traced hand-assembled stack cannot drift.
type spec struct {
	name string
	why  string
	opts aurora.Options
	rows int
	// replicaReads point reads of every transaction go to one read replica
	// attached in AZ 1; 0 attaches none.
	replicaReads int
	reads        int // point Gets on the writer
	writes       int // updates on the writer
}

// specs is the fixed workload table; later issues cite these names. The
// three zero-delay workloads run with backup off: with it on, identical
// runs at 20 000 rows ranged 299 to 6 580 txn/s, which no bound can gate.
var specs = []spec{
	{
		name: "write_only",
		why:  "all rows cached, 2 updates per txn: the commit path (apply, frame, ship x6, ingest, quorum, VDL) does all the work and the read path none",
		opts: aurora.Options{Name: "bench", DisableBackup: true},
		rows: 20000, writes: 2,
	},
	{
		name: "read_miss",
		why:  "64-page cache under 50 000 rows, 4 point Gets per txn: eviction, volume and storage page reads and materialize do all the work, the log path none",
		opts: aurora.Options{Name: "bench", DisableBackup: true, CachePages: 64},
		rows: 50000, reads: 4,
	},
	{
		name: "mixed_replica",
		why:  "4 replica Gets then 2 writer updates per txn, 128-page caches: storage nodes serve reads while ingesting and the replica applies redo to a cache that misses",
		opts: aurora.Options{Name: "bench", DisableBackup: true, CachePages: 128},
		rows: 20000, replicaReads: 4, writes: 2,
	},
	{
		name: "delay_dc",
		why:  "datacenter network, NVMe disks, backups on, 4 Gets + 2 updates per txn: latency is the count of serial simulated waits, so protocol changes move it and CPU changes do not",
		opts: aurora.Options{Name: "bench", Network: aurora.NetDatacenter, RealisticDisks: true},
		rows: 2000, reads: 4, writes: 2,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// clientCount is the closed loop's width: callers of an embedded database
// wait for their reply, and more clients than cores would measure the Go
// scheduler.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// plan sizes one run. The full plan comes from -seconds; -quick and the
// tier-1 test shrink it and drive the same code.
type plan struct {
	rowsDiv    int           // rows are spec.rows / rowsDiv
	setups     int           // timed build+load repetitions; the last one is measured
	warmup     time.Duration // discarded
	window     time.Duration // measured
	slice      time.Duration // the window is cut into slices of this length
	recoveries int           // CrashWriter -> Failover -> first commit cycles after the window
	probeDiv   int           // probe iteration counts are divided by this
}

// slices is how many slices the window holds.
func (p plan) slices() int {
	if n := int(p.window / p.slice); n > 1 {
		return n
	}
	return 1
}

func fullPlan(seconds int) plan {
	return plan{rowsDiv: 1, setups: 5, warmup: 3 * time.Second,
		window: time.Duration(seconds) * time.Second, slice: 500 * time.Millisecond,
		recoveries: 3, probeDiv: 1}
}

func quickPlan() plan {
	return plan{rowsDiv: 20, setups: 1, warmup: 300 * time.Millisecond,
		window: 3 * time.Second, slice: 250 * time.Millisecond, recoveries: 1, probeDiv: 10}
}

// metricDef names one reported metric. bound is the share of the parent's
// median an end-to-end metric may worsen by (BENCHMARK.json repeats it; the
// test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"txn_per_s", "1/s", higher, 0.25},
	{"txn_p50_us", "us", lower, 0.25},
	{"txn_p95_us", "us", lower, 0.25},
	{"cpu_us_per_txn", "us", lower, 0.25},
	{"allocs_per_txn", "count", lower, 0.02},
	{"alloc_kb_per_txn", "KB", lower, 0.05},
	{"net_msgs_per_txn", "count", lower, 0.05},
	{"net_kb_per_txn", "KB", lower, 0.05},
	{"peak_rss_mb", "MB", lower, 0.20},
}

// perLayer lists every per-layer metric the traced pass reports, grouped by
// this repository's packages. Source of each is in README.md.
var perLayer = []metricDef{
	{"engine.get_us_p50", "us", lower, 0},
	{"engine.get_us_p99", "us", lower, 0},
	{"engine.put_us_p50", "us", lower, 0},
	{"engine.commit_us_p50", "us", lower, 0},
	{"engine.commit_us_p99", "us", lower, 0},
	{"engine.txn_us_p99", "us", lower, 0},
	{"engine.txn_max_ms", "ms", lower, 0},
	{"engine.stall_windows", "count", lower, 0},
	{"engine.retries_per_ktxn", "count", lower, 0},
	{"engine.group_size_mean", "count", higher, 0},
	{"engine.lock_waits_per_ktxn", "count", lower, 0},

	{"txn.acquire_release_ns", "ns", lower, 0},

	{"btree.get_ns", "ns", lower, 0},
	{"btree.put_ns", "ns", lower, 0},
	{"btree.pages_per_get", "count", lower, 0},

	{"bufcache.hit_ratio", "ratio", higher, 0},
	{"bufcache.evictions_per_ktxn", "count", lower, 0},
	{"bufcache.overflow_per_ktxn", "count", lower, 0},
	{"bufcache.get_hit_ns", "ns", lower, 0},
	{"bufcache.put_evict_ns", "ns", lower, 0},

	{"core.frame_ns_per_record", "ns", lower, 0},
	{"core.frame_allocs_per_group", "count", lower, 0},
	{"core.decode_ns_per_record", "ns", lower, 0},
	{"core.wire_bytes_per_record", "B", lower, 0},

	{"volume.write_mtr_us_p50", "us", lower, 0},
	{"volume.read_page_us_p50", "us", lower, 0},
	{"volume.records_per_txn", "count", lower, 0},
	{"volume.frames_per_ktxn", "count", lower, 0},
	{"volume.log_kb_per_txn", "KB", lower, 0},
	{"volume.read_retries_per_kread", "count", lower, 0},
	{"volume.write_retries_per_ktxn", "count", lower, 0},
	{"volume.hedges_per_kread", "count", lower, 0},
	{"volume.recover_ms", "ms", lower, 0},

	{"netsim.msgs_per_txn", "count", lower, 0},
	{"netsim.bytes_per_msg", "B", lower, 0},
	{"netsim.send_overhead_ns", "ns", lower, 0},
	{"netsim.delay_delivered_ratio", "ratio", lower, 0},

	{"storage.ingest_us_per_batch", "us", lower, 0},
	{"storage.ingest_ns_per_record", "ns", lower, 0},
	{"storage.read_page_us_chain8", "us", lower, 0},
	{"storage.coalesce_us_per_page", "us", lower, 0},
	{"storage.backup_pass_ms", "ms", lower, 0},
	{"storage.backup_kb_per_pass", "KB", lower, 0},
	{"storage.scrub_pass_ms", "ms", lower, 0},
	{"storage.gossip_pass_us", "us", lower, 0},
	{"storage.records_per_txn", "count", lower, 0},
	{"storage.reads_per_ktxn", "count", lower, 0},
	{"storage.pages_coalesced_per_s", "1/s", higher, 0},
	{"storage.records_gced_per_s", "1/s", higher, 0},
	{"storage.gossiped_per_ktxn", "count", lower, 0},
	{"storage.records_held_end", "count", lower, 0},

	{"disk.writes_per_txn", "count", lower, 0},
	{"disk.syncs_per_txn", "count", lower, 0},
	{"disk.bytes_written_per_user_byte", "ratio", lower, 0},
	{"disk.delay_delivered_ratio", "ratio", lower, 0},

	{"page.materialize_ns_chain8", "ns", lower, 0},
	{"page.apply_ns", "ns", lower, 0},
	{"page.diff_ns", "ns", lower, 0},

	{"replica.get_us_p50", "us", lower, 0},
	{"replica.lag_lsn_p50", "count", lower, 0},
	{"replica.lag_lsn_p99", "count", lower, 0},
	{"replica.stale_read_share", "ratio", lower, 0},
	{"replica.read_errors_per_kread", "count", lower, 0},
	{"replica.applied_per_txn", "count", higher, 0},
	{"replica.discarded_per_txn", "count", lower, 0},

	{"objstore.objects_end", "count", lower, 0},

	{"path.commit.apply_share", "%", lower, 0},
	{"path.commit.queue_share", "%", lower, 0},
	{"path.commit.frame_share", "%", lower, 0},
	{"path.commit.ship_share", "%", lower, 0},
	{"path.commit.quorum_wait_share", "%", lower, 0},
	{"path.commit.storage_ingest_share", "%", lower, 0},
	{"path.commit.disk_share", "%", lower, 0},
	{"path.commit.vdl_wait_share", "%", lower, 0},
	{"path.commit.other_share", "%", lower, 0},
	{"path.read.attempt_share", "%", lower, 0},
	{"path.read.storage_share", "%", lower, 0},
	{"path.read.net_share", "%", lower, 0},
	{"path.read.other_share", "%", lower, 0},

	{"proc.gc_cycles_per_s", "1/s", lower, 0},
	{"proc.gc_pause_ms", "ms", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
}
