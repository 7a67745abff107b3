package harness

import (
	"fmt"
	"sync"

	"aurora"
	"aurora/internal/workload"
)

// TenantsExperiment measures the multi-tenant storage fleet: many
// independent volumes — each its own writer, LSN space and geometry —
// sharing one pool of storage hosts (§1: Aurora's storage service is
// explicitly multi-tenant). It runs through the public aurora API
// (NewStorageFleet / OpenVolume), so it doubles as an end-to-end test of
// the multi-tenant surface.
//
// Phase A (scaling): N tenants run the same OLTP mix concurrently on one
// shared 9-host fleet. Tenants bring their own writers, so aggregate
// writes/sec should INCREASE with N — the hosts are shared, not the
// bottleneck — which is the economic argument for fleet sharing.
//
// Phase B (noisy neighbor): three tenants on a QoS-shaped fleet, one
// deliberately hot (big-transaction flood). Per-host fair-share token
// buckets must throttle the hot tenant's excess while each quiet tenant
// retains at least ~70% of its solo fair-share throughput — measured
// against a baseline run of one quiet tenant alone with its fair share
// (capacity/3) as the whole budget.
func TenantsExperiment(s Scale) *Result {
	quietMix := workload.SysbenchOLTP(s.Rows)

	// --- Phase A: aggregate throughput scaling 1 -> N tenants ---
	// Per-tenant concurrency is pinned to a moderate level so the measured
	// bottleneck is the simulated fleet (network + disk latency), not the
	// test host's CPU: 4 tenants x 32 clients of pure simulation overruns a
	// small CI machine and the collapse would be scheduler churn, not a
	// storage property.
	sA := s
	if sA.Clients > 4 {
		sA.Clients = 4
	}
	counts := []int{1, 2, 4}
	aggregate := make([]float64, len(counts))
	t := &Table{Header: []string{"Config", "tenants", "writes/sec", "per-tenant", "throttles", "rejects"}}
	for ci, n := range counts {
		fleet, err := aurora.NewStorageFleet(aurora.FleetOptions{
			Name: fmt.Sprintf("scale%d", n), Hosts: 9, Network: aurora.NetDatacenter,
		})
		if err != nil {
			panic(err)
		}
		wps := runTenants(fleet, sA, makeTenants(fleet, sA, n, "t"), quietMix, nil)
		total := 0.0
		for _, w := range wps {
			total += w
		}
		aggregate[ci] = total
		t.Add(fmt.Sprintf("scale-%dx", n), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", total), fmt.Sprintf("%.0f", total/float64(n)), "-", "-")
		fleet.Close()
	}

	// --- Phase B: noisy-neighbor throttling under per-host QoS ---
	// Host ingest budget C: generous for three well-behaved tenants
	// (fair share C/3 each), far below what the flood offers.
	const hostIngest = 6 << 20 // 6 MiB/s per host
	hotMix := workload.Mix{Writes: 8, ValueSize: 1024, Dist: workload.Uniform{N: s.Rows}}

	// Baseline: one quiet tenant alone, with exactly its fair share as the
	// whole host budget (capacity/3 and one active tenant ≡ capacity and
	// three active tenants).
	baseFleet, err := aurora.NewStorageFleet(aurora.FleetOptions{
		Name: "qos-base", Hosts: 9, Network: aurora.NetDatacenter,
		IngestBytesPerSec: hostIngest / 3,
	})
	if err != nil {
		panic(err)
	}
	baseWPS := runTenants(baseFleet, s, makeTenants(baseFleet, s, 1, "base"), quietMix, nil)[0]
	baseFleet.Close()

	// Contended: two quiet tenants plus one hot flooder on the full budget.
	qosFleet, err := aurora.NewStorageFleet(aurora.FleetOptions{
		Name: "qos", Hosts: 9, Network: aurora.NetDatacenter,
		IngestBytesPerSec: hostIngest,
	})
	if err != nil {
		panic(err)
	}
	quiet := makeTenants(qosFleet, s, 2, "quiet")
	hot := makeTenants(qosFleet, s, 1, "hot")[0]
	hotClients := s.Clients * 4
	quietWPS := runTenants(qosFleet, s, quiet, quietMix, func(wg *sync.WaitGroup) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workload.Run(wlOf(hot.c), hotMix, workload.Options{
				Clients: hotClients, Duration: s.Duration, Seed: 99,
			})
		}()
	})
	stats := qosFleet.TenantStats()
	hotQoS := stats[hot.c.VolumeID()]
	minQuiet := quietWPS[0]
	for _, w := range quietWPS {
		if w < minQuiet {
			minQuiet = w
		}
	}
	retention := ratio(minQuiet, baseWPS)
	for i, w := range quietWPS {
		q := stats[quiet[i].c.VolumeID()]
		t.Add(fmt.Sprintf("qos-quiet-%d", i+1), "3", fmt.Sprintf("%.0f", w), fmt.Sprintf("%.0f", w),
			fmt.Sprintf("%d", q.Throttles), fmt.Sprintf("%d", q.Rejects))
	}
	t.Add("qos-hot-flood", "3", "-", "-",
		fmt.Sprintf("%d", hotQoS.Throttles), fmt.Sprintf("%d", hotQoS.Rejects))
	t.Add("qos-solo-baseline", "1", fmt.Sprintf("%.0f", baseWPS), fmt.Sprintf("%.0f", baseWPS), "-", "-")
	qosFleet.Close()

	return &Result{
		ID:    "Tenants",
		Title: "Multi-tenant storage fleet: shared hosts, per-tenant QoS",
		Table: t,
		Metrics: map[string]float64{
			"aggregate_1":        aggregate[0],
			"aggregate_2":        aggregate[1],
			"aggregate_4":        aggregate[2],
			"scaling_4v1":        ratio(aggregate[2], aggregate[0]),
			"quiet_retention":    retention,
			"quiet_min_wps":      minQuiet,
			"solo_fairshare_wps": baseWPS,
			"hot_throttles":      float64(hotQoS.Throttles),
			"hot_rejects":        float64(hotQoS.Rejects),
			"hot_throttle_secs":  hotQoS.ThrottleWait.Seconds(),
		},
		Notes: []string{
			"expect scaling_4v1 > 1 (aggregate throughput grows with tenant count on shared hosts)",
			"expect quiet_retention >= 0.7 (quiet tenants keep their fair share beside a flooding neighbor)",
			"expect hot_throttles > 0 (the flood is visibly shaped, not the quiet tenants)",
		},
	}
}

// tenant pairs an open volume with its name for workload runs.
type tenant struct {
	name string
	c    *aurora.Cluster
}

// makeTenants opens and preloads n volumes on the fleet.
func makeTenants(fleet *aurora.StorageFleet, s Scale, n int, prefix string) []tenant {
	out := make([]tenant, n)
	for i := range out {
		name := fmt.Sprintf("%s%d", prefix, i+1)
		c, err := fleet.OpenVolume(name, aurora.Options{PGs: 2, CachePages: 4096})
		if err != nil {
			panic(err)
		}
		if err := workload.Load(wlOf(c), s.Rows, 100); err != nil {
			panic(err)
		}
		out[i] = tenant{name: name, c: c}
	}
	return out
}

// runTenants drives the mix against every tenant concurrently (plus any
// extra load started by extra) and returns each tenant's writes/sec.
func runTenants(fleet *aurora.StorageFleet, s Scale, tenants []tenant, mix workload.Mix, extra func(*sync.WaitGroup)) []float64 {
	_ = fleet
	var wg sync.WaitGroup
	wps := make([]float64, len(tenants))
	if extra != nil {
		extra(&wg)
	}
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn tenant) {
			defer wg.Done()
			res := workload.Run(wlOf(tn.c), mix, workload.Options{
				Clients: s.Clients, Duration: s.Duration, Seed: int64(31 + i),
			})
			wps[i] = res.WritesPerSec(mix)
		}(i, tn)
	}
	wg.Wait()
	return wps
}

// wlOf adapts a public cluster to the workload driver — aurora.Tx satisfies
// workload.Tx structurally, which is itself part of what this experiment
// verifies about the public API.
func wlOf(c *aurora.Cluster) workload.DB {
	return workload.Of(c.Begin)
}
