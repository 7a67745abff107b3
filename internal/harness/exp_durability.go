package harness

import (
	"fmt"
	"time"

	"aurora/internal/quorum"
)

// DurabilityExperiment reproduces the §2 durability argument with the
// Monte-Carlo failure model: under the same background noise of node
// failures plus correlated AZ outages, the 2/3 scheme loses read quorum
// (i.e. can no longer prove durability or rebuild replication) far more
// often than Aurora's 4/6 AZ+1 design, and the mirrored 4/4 configuration
// loses write availability on any single failure. It also shows the §2.2
// segmentation argument: shrinking MTTR (small segments repair in seconds)
// collapses the window of vulnerability to double faults.
func DurabilityExperiment(Scale) *Result {
	base := quorum.DurabilityParams{
		NodeMTTF: 1000 * time.Hour,
		NodeMTTR: 1 * time.Hour,
		AZMTTF:   4000 * time.Hour,
		AZMTTR:   8 * time.Hour,
		Mission:  10 * 365 * 24 * time.Hour,
		Trials:   600,
		Seed:     2,
	}
	schemes := []struct {
		name, key string
		cfg       quorum.Config
	}{
		{"Aurora 4/6 (2 per AZ x 3 AZ)", "aurora", quorum.Aurora()},
		{"2/3 (1 per AZ x 3 AZ)", "twothree", quorum.TwoOfThree()},
		{"Mirrored 4/4 (2 AZ)", "mirrored", quorum.MirroredFourOfFour()},
	}
	t := &Table{Header: []string{"Scheme", "P(read quorum loss)", "P(write quorum loss)", "Write unavail (fraction)"}}
	metrics := map[string]float64{}
	for _, sc := range schemes {
		r := quorum.SimulateDurability(sc.cfg, base)
		t.Add(sc.name,
			fmt.Sprintf("%.4f", r.ReadQuorumLossProb),
			fmt.Sprintf("%.4f", r.WriteQuorumLossProb),
			fmt.Sprintf("%.6f", r.WriteUnavailFraction))
		metrics[sc.key+"_read_loss"] = r.ReadQuorumLossProb
		metrics[sc.key+"_write_loss"] = r.WriteQuorumLossProb
		metrics[sc.key+"_unavail"] = r.WriteUnavailFraction
	}

	// Segmentation: fast repair (10GB on 10Gbps ≈ seconds) vs slow.
	fast := base
	fast.NodeMTTR = quorum.RepairTime(10_000_000_000, 10_000_000_000)
	rFast := quorum.SimulateDurability(quorum.Aurora(), fast)
	rSlow := quorum.SimulateDurability(quorum.Aurora(), base)
	t.Add("Aurora 4/6, 10s segment repair",
		fmt.Sprintf("%.4f", rFast.ReadQuorumLossProb),
		fmt.Sprintf("%.4f", rFast.WriteQuorumLossProb),
		fmt.Sprintf("%.6f", rFast.WriteUnavailFraction))
	metrics["aurora_fast_repair_read_loss"] = rFast.ReadQuorumLossProb
	metrics["aurora_slow_repair_read_loss"] = rSlow.ReadQuorumLossProb

	return &Result{
		ID: "Durability (§2)", Title: "Monte-Carlo quorum durability under node + AZ failures (10-year mission)",
		Table: t, Metrics: metrics,
		Notes: []string{
			"AZ+1 goal: 4/6 tolerates an AZ loss plus one more failure for reads, an AZ loss for writes",
			"segmented storage shrinks MTTR, collapsing the double-fault window (§2.2)",
		},
	}
}
