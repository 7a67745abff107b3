// aurora-chaos runs the seeded fault-injection scenario matrix
// (internal/chaos) against full Aurora stacks: faults × stressors, each
// scenario on its own cluster with a checksumming workload, ending in a
// pass/fail/flaky cross-tab. A scenario fails on lost or wrong data, on a
// write or read the cluster should have served, or on a fault that never
// reached the machinery it targets (write retry, hedged reads, scrub,
// repair). Failures print a one-line replay command carrying the seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"aurora/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "master seed")
	tier := flag.String("tier", "smoke", fmt.Sprintf("tier: smoke (12 scenarios) or full (three sweeps, %d)",
		3*len(chaos.Faults)*len(chaos.Stressors)))
	count := flag.Int("count", 0, "scenario count override (0 = tier default; one full sweep with -only)")
	only := flag.String("only", "", "filter: run only scenarios whose fault/stressor name contains this")
	md := flag.String("md", "", "write the results table to this markdown file")
	flag.Parse()

	cfg := chaos.Config{Seed: *seed, Tier: *tier, Count: *count, Only: *only, Out: os.Stdout}
	fmt.Printf("scenario matrix: tier=%s seed=%d\n", *tier, *seed)
	res, err := chaos.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n%s", res.Table(), res.Summary())
	if *md != "" {
		out := fmt.Sprintf("Tier %s, seed %d, %d scenarios.\n\n%s\n", res.Tier, res.Seed, len(res.Scenarios), res.Table())
		if err := os.WriteFile(*md, []byte(out), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if !res.Passed() {
		fmt.Println("FAIL: violations above; replay commands included")
		os.Exit(1)
	}
	fmt.Println("PASS: no scenario failed twice (flaky ones are counted above)")
}
