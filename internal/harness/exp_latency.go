package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/trace"
	"aurora/internal/volume"
	"aurora/internal/workload"
)

// LatencyAttribution answers "where does a 4/6-quorum commit's latency go"
// with the causal tracing subsystem: it drives a write-only workload with
// commit sampling on, collects every sampled commit's critical path, and
// prints each stage's share of end-to-end commit latency under three
// conditions — normal, one gray-slow storage node per PG (alive, acking,
// +2ms on every message), and an entire AZ down. The shares in a column
// are a true decomposition: each sampled commit's wall time is attributed
// to exactly one stage at every instant, so a column sums to ~100%.
//
// The shape this reproduces: under a gray-slow node the write quorum masks
// the slow replica (§2.1 — its flights become stragglers past the 4/6
// point, visible in the stage histograms but off the critical path), while
// an AZ failure removes the slack — the quorum needs every surviving
// replica, so the commit path inherits the fleet's tail (§3.1's "bottom
// 0.01%" sensitivity) and the gray-failure machinery (retries against the
// dead AZ) engages.
func LatencyAttribution(s Scale) *Result {
	type scenario struct {
		name   string
		fault  func(a *AuroraStack)
		shares map[string]float64
		p50    time.Duration
		p99    time.Duration
		n      int
		vs     volume.Stats
	}
	scenarios := []*scenario{
		{name: "normal", fault: func(a *AuroraStack) {}},
		{name: "gray-slow", fault: func(a *AuroraStack) {
			// One replica per PG goes gray: alive and acking, +2ms per hop.
			for g := 0; g < a.Fleet.PGs(); g++ {
				_ = a.Net.SetNodeDelay(a.Fleet.Node(core.PGID(g), 0).NodeID(), 2*time.Millisecond)
			}
		}},
		{name: "az-down", fault: func(a *AuroraStack) {
			a.Net.SetAZDown(netsim.AZ(2), true)
		}},
	}

	mix := workload.SysbenchWriteOnly(s.Rows)
	metrics := map[string]float64{}
	var raw strings.Builder
	for i, sc := range scenarios {
		au, err := NewAurora(AuroraConfig{
			PGs: 4, CachePages: 4096,
			Net:    benchNet(71 + int64(i)),
			Disk:   disk.NVMe(),
			Engine: engine.Config{TraceEvery: 4, TraceRing: 1024},
		})
		if err != nil {
			panic(err)
		}
		if err := workload.Load(au.WL(), s.Rows, 100); err != nil {
			panic(err)
		}
		sc.fault(au)
		workload.Run(au.WL(), mix, workload.Options{Clients: s.Clients, Duration: s.Duration, Seed: 71})

		sc.shares, sc.p50, sc.p99, sc.n = commitPathShares(au.DB.Tracer())
		vs := au.DB.Stats().Volume
		sc.vs = vs
		metrics[sc.name+"_flights"] = float64(vs.Flights)
		metrics[sc.name+"_shipments"] = float64(vs.Shipments)
		metrics[sc.name+"_shipments_waited"] = float64(vs.ShipmentsWaited)
		metrics[sc.name+"_commits_traced"] = float64(sc.n)
		metrics[sc.name+"_p50_ms"] = float64(sc.p50.Microseconds()) / 1000
		metrics[sc.name+"_p99_ms"] = float64(sc.p99.Microseconds()) / 1000
		metrics[sc.name+"_write_retries"] = float64(vs.WriteRetries)
		metrics[sc.name+"_hedges"] = float64(vs.Hedges)

		if sc.name == "normal" {
			raw.WriteString("per-stage latency attribution (normal):\n")
			raw.WriteString(trace.FormatStages(au.DB.Tracer().Stages()))
			if ex := au.DB.Tracer().Exemplars("commit"); len(ex) > 0 {
				raw.WriteString("\nslowest sampled commit (critical-path exemplar):\n")
				raw.WriteString(ex[0].Render())
				raw.WriteString("critical path: ")
				for j, seg := range trace.CriticalPath(ex[0].Snapshot()) {
					if j > 0 {
						raw.WriteString(" + ")
					}
					fmt.Fprintf(&raw, "%s %v", seg.Name, seg.Dur.Round(time.Microsecond))
				}
				raw.WriteString("\n")
			}
		}
		au.Close()
	}

	// Rows: union of stages on any scenario's critical paths, ordered by
	// the normal scenario's share descending.
	stageSet := map[string]bool{}
	for _, sc := range scenarios {
		for st := range sc.shares {
			stageSet[st] = true
		}
	}
	stages := make([]string, 0, len(stageSet))
	for st := range stageSet {
		stages = append(stages, st)
	}
	sort.Slice(stages, func(a, b int) bool {
		if scenarios[0].shares[stages[a]] != scenarios[0].shares[stages[b]] {
			return scenarios[0].shares[stages[a]] > scenarios[0].shares[stages[b]]
		}
		return stages[a] < stages[b]
	})
	t := &Table{Header: []string{"Stage (critical-path share)", "normal", "gray-slow", "az-down"}}
	for _, st := range stages {
		t.Add(st,
			fmt.Sprintf("%.1f%%", scenarios[0].shares[st]),
			fmt.Sprintf("%.1f%%", scenarios[1].shares[st]),
			fmt.Sprintf("%.1f%%", scenarios[2].shares[st]))
	}
	t.Add("commit p50",
		fmtDur(scenarios[0].p50), fmtDur(scenarios[1].p50), fmtDur(scenarios[2].p50))
	t.Add("commit p99",
		fmtDur(scenarios[0].p99), fmtDur(scenarios[1].p99), fmtDur(scenarios[2].p99))
	// The sender pipelines' queue: how many batches flew together, and how
	// many found a replica's whole window in the air.
	perFlight := func(v volume.Stats) string {
		return fmt.Sprintf("%.2f", float64(v.Shipments)/float64(max(v.Flights, 1)))
	}
	waited := func(v volume.Stats) string {
		return fmt.Sprintf("%.1f%%", 100*float64(v.ShipmentsWaited)/float64(max(v.Shipments, 1)))
	}
	t.Add("shipments per flight",
		perFlight(scenarios[0].vs), perFlight(scenarios[1].vs), perFlight(scenarios[2].vs))
	t.Add("shipments behind a full window",
		waited(scenarios[0].vs), waited(scenarios[1].vs), waited(scenarios[2].vs))

	return &Result{
		ID: "Latency", Title: "where a 4/6-quorum commit's latency goes (critical-path attribution)",
		Table:   t,
		Metrics: metrics,
		Notes: []string{
			"each column decomposes sampled commits' end-to-end latency; columns sum to ~100%",
			"gray-slow: the 4/6 quorum keeps the slow replica off the critical path (§2.1)",
			"az-down: the quorum needs all 4 survivors, so the commit inherits the fleet tail (§3.1)",
		},
		Raw: raw.String(),
	}
}

// commitPathShares folds every finished sampled commit's critical path into
// per-stage shares of total commit time, plus the p50/p99 of the sampled
// commits' end-to-end latencies.
func commitPathShares(col *trace.Collector) (map[string]float64, time.Duration, time.Duration, int) {
	acc := map[string]time.Duration{}
	var total time.Duration
	var durs []time.Duration
	for _, tr := range col.Traces() {
		if tr.RootName() != "commit" {
			continue
		}
		snap := tr.Snapshot()
		if snap.End == 0 {
			continue
		}
		for _, seg := range trace.CriticalPath(snap) {
			acc[seg.Name] += seg.Dur
		}
		total += snap.Duration()
		durs = append(durs, snap.Duration())
	}
	shares := map[string]float64{}
	if total > 0 {
		for k, v := range acc {
			shares[k] = 100 * float64(v) / float64(total)
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	q := func(p float64) time.Duration {
		if len(durs) == 0 {
			return 0
		}
		i := int(p * float64(len(durs)-1))
		return durs[i]
	}
	return shares, q(0.50), q(0.99), len(durs)
}
