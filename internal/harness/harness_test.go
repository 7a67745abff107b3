package harness

import (
	"io"
	"sort"
	"testing"
)

// The harness tests assert the *shape* of each reproduced result — who
// wins, in which direction, by at least a conservative factor — at quick
// scale. The recorded full-scale numbers live in EXPERIMENTS.md.

func metrics(t *testing.T, r *Result) map[string]float64 {
	t.Helper()
	r.Print(io.Discard)
	if len(r.Table.Rows) == 0 {
		t.Fatalf("%s produced no rows", r.ID)
	}
	return r.Metrics
}

func TestTable1Shape(t *testing.T) {
	m := metrics(t, Table1(Quick()))
	if m["aurora_txns"] <= m["mysql_txns"] {
		t.Fatalf("Aurora txns %v must exceed MySQL %v", m["aurora_txns"], m["mysql_txns"])
	}
	if m["txn_ratio"] < 3 {
		t.Fatalf("txn ratio %v, want >= 3 (paper: 35x)", m["txn_ratio"])
	}
	if m["aurora_ios_per_txn"] >= m["mysql_ios_per_txn"] {
		t.Fatalf("Aurora IOs/txn %v must be below MySQL %v", m["aurora_ios_per_txn"], m["mysql_ios_per_txn"])
	}
	if m["aurora_ios_per_txn"] >= 2 {
		t.Fatalf("Aurora IOs/txn %v, want < 2 (paper: 0.95)", m["aurora_ios_per_txn"])
	}
}

func TestFigure6Shape(t *testing.T) {
	m := metrics(t, Figure6(Quick()))
	if m["aurora_scaling_factor"] < 5 {
		t.Fatalf("Aurora read scaling %v across 16x vCPUs, want >= 5", m["aurora_scaling_factor"])
	}
	if m["aurora_vs_mysql_top"] < 1.3 {
		t.Fatalf("Aurora/MySQL at top size %v, want >= 1.3 (paper: 5x)", m["aurora_vs_mysql_top"])
	}
}

func TestFigure7Shape(t *testing.T) {
	m := metrics(t, Figure7(Quick()))
	if m["aurora_scaling_factor"] < 3 {
		t.Fatalf("Aurora write scaling %v across 16x vCPUs, want >= 3", m["aurora_scaling_factor"])
	}
	if m["aurora_vs_mysql_top"] < 1.2 {
		t.Fatalf("Aurora/MySQL at top size %v, want >= 1.2 (paper: 5x)", m["aurora_vs_mysql_top"])
	}
}

func TestTable2Shape(t *testing.T) {
	m := metrics(t, Table2(Quick()))
	if m["mysql_degradation"] <= m["aurora_degradation"] {
		t.Fatalf("MySQL degradation %v must exceed Aurora %v (out-of-cache collapse)",
			m["mysql_degradation"], m["aurora_degradation"])
	}
	if m["advantage_at_max"] < 2 {
		t.Fatalf("Aurora advantage at max size %v, want >= 2 (paper: 34x)", m["advantage_at_max"])
	}
}

func TestTable3Shape(t *testing.T) {
	m := metrics(t, Table3(Quick()))
	if m["aurora_growth"] < 1.5 {
		t.Fatalf("Aurora writes/sec must grow with connections, got %v", m["aurora_growth"])
	}
	if m["mysql_tail_vs_peak"] > 0.85 {
		t.Fatalf("MySQL at max connections %v of its peak, want <= 0.85 (the §6.1.3 collapse)",
			m["mysql_tail_vs_peak"])
	}
	if m["aurora_vs_mysql_at_max_conns"] < 2 {
		t.Fatalf("Aurora/MySQL at max conns %v, want >= 2 (paper: ~8.5x)",
			m["aurora_vs_mysql_at_max_conns"])
	}
}

func TestTable4Shape(t *testing.T) {
	m := metrics(t, Table4(Quick()))
	if m["lag_ratio_at_max"] < 3 {
		t.Fatalf("MySQL/Aurora lag at max rate %v, want >= 3 (paper: orders of magnitude)",
			m["lag_ratio_at_max"])
	}
	if m["aurora_lag_ms_at_1000"] > 500 {
		t.Fatalf("Aurora lag %vms at the top rate, want bounded in ms", m["aurora_lag_ms_at_1000"])
	}
}

func TestTable5Shape(t *testing.T) {
	m := metrics(t, Table5(Quick()))
	if m["max_ratio"] < 1.5 {
		t.Fatalf("best-case Aurora/MySQL tpmC %v, want >= 1.5 (paper: up to 16.3x)", m["max_ratio"])
	}
	// High-contention quick runs are noisy cell by cell; the worst cell
	// must not collapse and the grid mean must clearly favour Aurora.
	if m["min_ratio"] < 0.6 {
		t.Fatalf("worst-case Aurora/MySQL tpmC %v, want >= 0.6 (paper: >= 2.3x)", m["min_ratio"])
	}
	if m["mean_ratio"] < 1.3 {
		t.Fatalf("mean Aurora/MySQL tpmC %v across the grid, want >= 1.3", m["mean_ratio"])
	}
}

func TestFigure8Shape(t *testing.T) {
	m := metrics(t, Figure8(Quick()))
	if m["improvement"] < 1.5 {
		t.Fatalf("response-time improvement %v, want >= 1.5 (paper: 3x)", m["improvement"])
	}
}

func TestFigure9Shape(t *testing.T) {
	m := metrics(t, Figure9(Quick()))
	if m["p95_improvement"] < 1.3 {
		t.Fatalf("SELECT P95 improvement %v, want >= 1.3", m["p95_improvement"])
	}
	if m["aurora_p95_over_p50"] >= m["mysql_p95_over_p50"]*1.2 {
		t.Fatalf("Aurora tail ratio %v should not exceed MySQL's %v (P95 collapses toward P50)",
			m["aurora_p95_over_p50"], m["mysql_p95_over_p50"])
	}
}

func TestFigure10Shape(t *testing.T) {
	m := metrics(t, Figure10(Quick()))
	if m["p95_improvement"] < 2 {
		t.Fatalf("INSERT P95 improvement %v, want >= 2 (paper: dramatic)", m["p95_improvement"])
	}
}

func TestFigure11Shape(t *testing.T) {
	m := metrics(t, Figure11(Quick()))
	if m["max_lag_ms"] > 1000 {
		t.Fatalf("max replica lag %vms, want bounded (paper: < 20ms at scale)", m["max_lag_ms"])
	}
}

func TestFigure12Shape(t *testing.T) {
	m := metrics(t, Figure12(Quick()))
	if m["failed_stmts"] != 0 {
		t.Fatalf("%v statements failed across the patch, want 0", m["failed_stmts"])
	}
	if m["sessions"] != 8 {
		t.Fatalf("sessions preserved %v, want 8", m["sessions"])
	}
	if m["stmts"] == 0 {
		t.Fatal("no statements executed")
	}
}

func TestRecoveryShape(t *testing.T) {
	m := metrics(t, RecoveryExperiment(Quick()))
	if m["mysql_growth"] < 2 {
		t.Fatalf("MySQL recovery growth with backlog %v, want >= 2 (ARIES redo)", m["mysql_growth"])
	}
	if m["aurora_growth"] > m["mysql_growth"] {
		t.Fatalf("Aurora recovery growth %v must stay below MySQL's %v",
			m["aurora_growth"], m["mysql_growth"])
	}
	if m["aurora_ms_at_max"] > 10000 {
		t.Fatalf("Aurora recovery %vms, want well under the paper's 10s", m["aurora_ms_at_max"])
	}
}

func TestDurabilityShape(t *testing.T) {
	m := metrics(t, DurabilityExperiment(Quick()))
	if m["aurora_read_loss"] >= m["twothree_read_loss"] {
		t.Fatalf("4/6 read-quorum loss %v must be below 2/3's %v (§2.1)",
			m["aurora_read_loss"], m["twothree_read_loss"])
	}
	if m["mirrored_unavail"] <= m["aurora_unavail"] {
		t.Fatalf("4/4 write unavailability %v must exceed 4/6's %v (§3.1)",
			m["mirrored_unavail"], m["aurora_unavail"])
	}
	if m["aurora_fast_repair_read_loss"] > m["aurora_slow_repair_read_loss"] {
		t.Fatalf("fast segment repair %v must not raise loss probability over %v (§2.2)",
			m["aurora_fast_repair_read_loss"], m["aurora_slow_repair_read_loss"])
	}
}

func TestAblationShapes(t *testing.T) {
	m := metrics(t, AblationSyncCommit(Quick()))
	if m["speedup"] < 2 {
		t.Fatalf("async-commit speedup %v, want >= 2", m["speedup"])
	}
	m = metrics(t, AblationCoalesce(Quick()))
	// Both rows keep a window of flights per replica, so the throughput rows
	// are 2.5 % apart at full scale and inside the noise at this one: what
	// coalescing saves is messages, and it must not cost throughput.
	if m["coalesced_tps"] < 0.8*m["uncoalesced_tps"] {
		t.Fatalf("coalescing tps %v is well below uncoalesced %v", m["coalesced_tps"], m["uncoalesced_tps"])
	}
	if m["coalesced_ios"] >= m["uncoalesced_ios"] {
		t.Fatalf("coalescing IOs/txn %v must be below uncoalesced %v", m["coalesced_ios"], m["uncoalesced_ios"])
	}
	m = metrics(t, AblationFullPages(Quick()))
	if m["amplification"] < 3 {
		t.Fatalf("full-page write amplification %v, want >= 3", m["amplification"])
	}
	m = metrics(t, AblationMaterialize(Quick()))
	if m["chain_after"] >= m["chain_before"] {
		t.Fatalf("materialization did not shorten the chain: %v -> %v", m["chain_before"], m["chain_after"])
	}
	if m["chain_before"] < 100 {
		t.Fatalf("hot page chain %v too short to be interesting", m["chain_before"])
	}
}

// TestLogSplitShape: the split halves the synchronous bytes per commit and
// feeds the page tier in the background, and its commits run at the classic
// quorum's pace. A storage node writes pages outside the lock its ingest
// takes, so neither scheme's acks wait for page materialization and the
// latency and throughput ratios sit near 1 — from both sides:
//
//   - a classic replica whose ingest queues behind its page writes again
//     shows as the split pulling ahead (that stall put the classic row at
//     writes ratio 1.4–2.3 and p95 ratio 0.4–0.7);
//   - a split ack path that queues behind something the classic one does not
//     shows as the split falling behind.
//
// One Quick run (250 ms windows) is too noisy for bounds that tight, so each
// ratio is the median of three runs.
func TestLogSplitShape(t *testing.T) {
	var runs [3]map[string]float64
	for i := range runs {
		runs[i] = metrics(t, LogSplitExperiment(Quick()))
	}
	median := func(k string) float64 {
		v := []float64{runs[0][k], runs[1][k], runs[2][k]}
		sort.Float64s(v)
		return v[1]
	}
	if r := median("sync_bytes_ratio"); r > 0.7 {
		t.Fatalf("split sync bytes/commit %v of baseline, want <= 0.7 (3 log copies vs 6)", r)
	}
	for _, b := range []struct {
		metric   string
		min, max float64
	}{
		{"writes_ratio", 0.7, 1.4},
		{"p50_ratio", 0.7, 1.4},
		{"p95_ratio", 0.7, 1.5},
	} {
		if r := median(b.metric); r < b.min || r > b.max {
			t.Fatalf("split/classic %s %.3f (median of three), want within [%v, %v]",
				b.metric, r, b.min, b.max)
		}
	}
	if median("split_feed_bytes") <= 0 {
		t.Fatalf("page tier pulled no feed bytes; the async feed is not running")
	}
}

func TestTenantsShape(t *testing.T) {
	m := metrics(t, TenantsExperiment(Quick()))
	if m["scaling_4v1"] <= 1 {
		t.Fatalf("aggregate writes/sec at 4 tenants is %vx the 1-tenant run, want > 1 (shared hosts must scale)",
			m["scaling_4v1"])
	}
	if m["quiet_retention"] < 0.7 {
		t.Fatalf("quiet tenant kept %v of its solo fair-share throughput beside the flood, want >= 0.7",
			m["quiet_retention"])
	}
	if m["hot_throttles"] <= 0 {
		t.Fatalf("hot tenant was never throttled; the flood ran unshaped")
	}
}
