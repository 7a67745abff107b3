// aurora-chaos runs a randomized fault-injection campaign against a full
// Aurora stack: node crashes, AZ outages, segment wipes with repair, slow
// disks and page corruption, plus the gray regime — probabilistic packet
// loss and slow-but-alive nodes — all while a probe workload verifies that
// committed data is never lost or wrong (§2's operational claims) and that
// the gray-failure machinery (write retry, hedged reads, self-driven
// repair) actually engaged.
//
// With -matrix it instead runs the seeded integrity scenario matrix
// (internal/chaos/matrix): faults × stressors, each scenario on its own
// cluster with a checksumming workload, ending in a pass/fail/flaky
// cross-tab. Failures print a one-line replay command carrying the seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"aurora/internal/chaos"
	"aurora/internal/chaos/matrix"
	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

func main() {
	rounds := flag.Int("rounds", 5, "random fault rounds")
	seed := flag.Int64("seed", 7, "rng seed")
	probes := flag.Int("probes", 40, "probe rounds per active fault (deterministic pacing)")
	gray := flag.Bool("gray", true, "include the gray regime: packet loss, gray-slow replicas, self-healed wipe")
	matrixMode := flag.Bool("matrix", false, "run the integrity scenario matrix instead of the drill")
	tier := flag.String("tier", "smoke", fmt.Sprintf("matrix tier: smoke (12 scenarios) or full (three sweeps, %d)",
		3*len(matrix.Faults)*len(matrix.Stressors)))
	count := flag.Int("count", 0, "matrix scenario count override (0 = tier default; one full sweep with -only)")
	only := flag.String("only", "", "matrix filter: run only scenarios whose fault/stressor name contains this")
	md := flag.String("md", "", "write the matrix results table to this markdown file")
	flag.Parse()

	if *matrixMode {
		runMatrix(*seed, *tier, *count, *only, *md)
		return
	}

	net := netsim.New(netsim.Datacenter())
	fleet, err := volume.NewFleet(volume.FleetConfig{Name: "chaos", Geometry: core.UniformGeometry(4), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		log.Fatal(err)
	}
	vol := volume.Bootstrap(fleet, volume.ClientConfig{WriterNode: "chaos-writer", WriterAZ: 0})
	db, err := engine.Create(vol, engine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fleet.Start()
	defer fleet.Stop()

	rng := rand.New(rand.NewSource(*seed))
	var faults []chaos.Fault
	if *gray {
		// The gray regime: 10% packet loss fleet-wide plus one gray-slow
		// replica per PG (always a same-AZ one, so it would be the
		// preferred read target without health-ordered hedging).
		regime := []chaos.Fault{chaos.PacketLoss(net, 0.10)}
		for pg := 0; pg < fleet.PGs(); pg++ {
			slow := fleet.Node(core.PGID(pg), pg%2)
			regime = append(regime, chaos.GraySlowNode(net, slow.NodeID(), chaos.GraySlowDelay()))
		}
		faults = append(faults, chaos.Compose("gray regime: 10% loss + slow replicas", regime...))
		// One wipe healed only by the fleet's own repair monitor. PG0 holds
		// the btree root, so every probe write ships it a delta and the
		// wiped replica's failure streak is guaranteed to build.
		faults = append(faults, chaos.WipeNode(fleet, 0, rng.Intn(6)))
	}
	for i := 0; i < *rounds; i++ {
		pg := core.PGID(rng.Intn(fleet.PGs()))
		replica := rng.Intn(6)
		switch rng.Intn(4) {
		case 0:
			faults = append(faults, chaos.CrashNode(fleet, pg, replica))
		case 1:
			faults = append(faults, chaos.AZOutage(net, netsim.AZ(1+rng.Intn(2)))) // never the writer's AZ
		case 2:
			faults = append(faults, chaos.WipeAndRepairNode(fleet, pg, replica))
		case 3:
			faults = append(faults, chaos.SlowDisk(fleet, pg, replica))
		}
	}

	fmt.Printf("chaos campaign: %d faults, %d probes/fault, seed %d\n", len(faults), *probes, *seed)
	for _, f := range faults {
		fmt.Printf("  - %s\n", f.Name)
	}
	runner := &chaos.Runner{DB: db, Faults: faults, ProbesPerFault: *probes, Seed: *seed}
	rep := runner.Run()

	// Give the self-driven repair monitor a bounded window to finish any
	// in-flight catch-up before reading the counters.
	if *gray {
		deadline := time.Now().Add(chaos.SettleTimeout())
		for fleet.Health().Stats().AutoRepairs == 0 && time.Now().Before(deadline) {
			time.Sleep(chaos.PollInterval())
		}
	}
	hs := fleet.Health().Stats()

	fmt.Printf("\nresults:\n")
	fmt.Printf("  faults injected : %d\n", rep.FaultsInjected)
	fmt.Printf("  writes          : %d ok / %d attempted\n", rep.WritesOK, rep.WritesAttempted)
	fmt.Printf("  reads           : %d ok / %d attempted\n", rep.ReadsOK, rep.ReadsAttempted)
	fmt.Printf("  data errors     : %d\n", rep.DataErrors)
	fmt.Printf("  write retries   : %d\n", hs.Retries)
	fmt.Printf("  hedged reads    : %d launched, %d won\n", hs.Hedges, hs.HedgeWins)
	fmt.Printf("  auto repairs    : %d\n", hs.AutoRepairs)
	fmt.Printf("  resp drops      : %d\n", hs.RespDrops)
	fmt.Printf("  volume reads    : %d served\n", vol.Stats().ReadsServed)
	for _, e := range rep.HealErrors {
		fmt.Printf("  heal error      : %v\n", e)
	}

	fail := func(msg string) {
		fmt.Printf("FAIL: %s\n", msg)
		os.Exit(1)
	}
	if rep.DataErrors > 0 {
		fail("committed data was lost or wrong")
	}
	if rep.WritesOK*100 < rep.WritesAttempted*99 {
		fail(fmt.Sprintf("write success rate %.2f%% below 99%%",
			100*float64(rep.WritesOK)/float64(rep.WritesAttempted)))
	}
	if *gray {
		if hs.Retries == 0 {
			fail("gray regime ran but the write path never retried")
		}
		if hs.Hedges == 0 {
			fail("gray regime ran but no read was ever hedged")
		}
		if hs.AutoRepairs == 0 {
			fail("wiped segment was never self-repaired")
		}
		fmt.Println("PASS: no committed data lost under chaos; gray-failure machinery engaged")
		return
	}
	fmt.Println("PASS: no committed data lost under chaos")
}

// runMatrix executes the scenario matrix and renders its verdict: the
// cross-tab, the summary with replay commands, and optionally a markdown
// file for EXPERIMENTS.md.
func runMatrix(seed int64, tier string, count int, only, md string) {
	cfg := matrix.Config{Seed: seed, Tier: tier, Count: count, Only: only, Out: os.Stdout}
	fmt.Printf("integrity matrix: tier=%s seed=%d\n", tier, seed)
	res, err := matrix.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n%s", res.Table(), res.Summary())
	if md != "" {
		out := fmt.Sprintf("Tier %s, seed %d, %d scenarios.\n\n%s\n", res.Tier, res.Seed, len(res.Scenarios), res.Table())
		if err := os.WriteFile(md, []byte(out), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if !res.Passed() {
		fmt.Println("FAIL: integrity violations above; replay commands included")
		os.Exit(1)
	}
	if res.Flaky() {
		fmt.Println("PASS (with flaky scenarios — see table)")
		return
	}
	fmt.Println("PASS: all scenarios held every integrity invariant")
}
