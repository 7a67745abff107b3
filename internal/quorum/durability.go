package quorum

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"aurora/internal/core"
)

// DurabilityParams drives the Monte-Carlo durability model of §2.2. The
// model answers the paper's question: given independent node failures
// (MTTF) repaired within MTTR, plus correlated whole-AZ failures, what is
// the probability that a protection group loses read quorum (can no longer
// prove durability) or write quorum (loses write availability) during the
// mission time?
type DurabilityParams struct {
	NodeMTTF time.Duration // mean time between failures of one copy's node
	NodeMTTR time.Duration // time to repair one failed copy (re-replication)
	AZMTTF   time.Duration // mean time between whole-AZ failures; 0 disables
	AZMTTR   time.Duration // duration of an AZ outage
	Mission  time.Duration // observation window (e.g. one year)
	Trials   int
	Seed     int64
	// LogMTTR is the reprotection time of one log-tier copy in a split
	// scheme (Taurus, PAPERS.md): a log segment is a tiny append-only
	// suffix, so when its node or AZ goes dark the writer re-places it on
	// any healthy node in seconds rather than waiting out the outage.
	// Zero falls back to NodeMTTR (no reprotection advantage). Ignored by
	// non-split schemes.
	LogMTTR time.Duration
}

// DurabilityResult summarises the trials.
type DurabilityResult struct {
	Trials int
	// ReadQuorumLossProb is the fraction of trials in which, at some
	// instant, fewer than Vr copies were healthy — the model's proxy for
	// data loss risk (durability cannot be proven and write quorum cannot
	// be rebuilt).
	ReadQuorumLossProb float64
	// WriteQuorumLossProb is the fraction of trials in which write
	// availability was lost at some instant.
	WriteQuorumLossProb float64
	// WriteUnavailFraction is the mean fraction of mission time without
	// write availability.
	WriteUnavailFraction float64
}

// RepairTime returns the time to re-replicate a segment of the given size
// over a link of the given bandwidth — the §2.2 observation that a 10GB
// segment repairs in 10 seconds on a 10Gbps link, which is why segmenting
// shrinks the window of vulnerability to a double fault.
func RepairTime(segmentBytes int64, linkBitsPerSec int64) time.Duration {
	if linkBitsPerSec <= 0 {
		return 0
	}
	secs := float64(segmentBytes*8) / float64(linkBitsPerSec)
	return time.Duration(secs * float64(time.Second))
}

// interval is a half-open outage window [from, to).
type interval struct{ from, to float64 }

// sampleOutages generates outage intervals over [0, mission) for a
// component with exponential inter-failure times.
func sampleOutages(rng *rand.Rand, mttf, mttr, mission float64) []interval {
	if mttf <= 0 {
		return nil
	}
	var out []interval
	t := rng.ExpFloat64() * mttf
	for t < mission {
		end := t + mttr
		out = append(out, interval{t, math.Min(end, mission)})
		t = end + rng.ExpFloat64()*mttf
	}
	return out
}

// SimulateDurability runs the Monte-Carlo model for one protection group
// under the given quorum scheme. Each trial samples every copy's outages (its
// own node failures plus the failures of its AZ) and sweeps them in time
// order, counting the copies down in each tier; the scheme's own predicates
// (Config.durabilityLost, Config.writeBlocked) judge every instant.
//
// A role-split scheme caps its log-tier outages at LogMTTR regardless of
// cause: a log segment is a tiny append-only suffix, so even an AZ outage only
// costs the reprotection time of re-placing it on a healthy AZ (the Taurus
// frugal-replication argument). Page and full copies wait out their outages.
func SimulateDurability(cfg Config, p DurabilityParams) DurabilityResult {
	if p.Trials <= 0 {
		p.Trials = 1000
	}
	seed := p.Seed
	if seed == 0 {
		seed = 0x5175 // deterministic default
	}
	rng := rand.New(rand.NewSource(seed))
	mission := p.Mission.Seconds()
	logMTTR := p.LogMTTR.Seconds()
	if logMTTR <= 0 {
		logMTTR = p.NodeMTTR.Seconds()
	}

	// A sweep-line event: +1 when a copy of the tier goes down, -1 when it
	// recovers.
	type event struct {
		t     float64
		delta int
		page  bool // page tier; else the tier that acknowledges writes
	}
	var readLoss, writeLoss int
	var unavailTotal float64

	for trial := 0; trial < p.Trials; trial++ {
		azOutages := make([][]interval, cfg.AZs)
		if p.AZMTTF > 0 {
			for az := 0; az < cfg.AZs; az++ {
				azOutages[az] = sampleOutages(rng, p.AZMTTF.Seconds(), p.AZMTTR.Seconds(), mission)
			}
		}
		var events []event
		for i := 0; i < cfg.V; i++ {
			role := cfg.Role(i)
			page := role == core.RolePage
			// mttr repairs the copy's own node; outageCap bounds any outage
			// of the copy, whatever its cause (0 = none).
			mttr, outageCap := p.NodeMTTR.Seconds(), 0.0
			if role == core.RoleLog {
				mttr, outageCap = logMTTR, logMTTR
			}
			outages := sampleOutages(rng, p.NodeMTTF.Seconds(), mttr, mission)
			if cfg.AZs > 0 {
				outages = append(outages, azOutages[cfg.ReplicaAZ(i)]...)
			}
			for _, iv := range outages {
				to := iv.to
				if outageCap > 0 && iv.from+outageCap < to {
					to = iv.from + outageCap
				}
				events = append(events, event{iv.from, +1, page}, event{to, -1, page})
			}
		}
		if len(events) == 0 {
			continue
		}
		sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })

		// Note: a copy down for two overlapping reasons (node + AZ) counts
		// twice in the sweep; that overcounts failures slightly, making the
		// model conservative (it can only over-estimate loss probability,
		// never under-estimate it).
		var down, downPage int
		lostRead, lostWrite := false, false
		var unavail, prevT float64
		writeBlocked := false
		for _, e := range events {
			if writeBlocked {
				unavail += e.t - prevT
			}
			prevT = e.t
			if e.page {
				downPage += e.delta
			} else {
				down += e.delta
			}
			if cfg.durabilityLost(down, downPage) {
				lostRead = true
			}
			writeBlocked = cfg.writeBlocked(down)
			if writeBlocked {
				lostWrite = true
			}
		}
		if lostRead {
			readLoss++
		}
		if lostWrite {
			writeLoss++
		}
		unavailTotal += unavail / mission
	}

	return DurabilityResult{
		Trials:               p.Trials,
		ReadQuorumLossProb:   float64(readLoss) / float64(p.Trials),
		WriteQuorumLossProb:  float64(writeLoss) / float64(p.Trials),
		WriteUnavailFraction: unavailTotal / float64(p.Trials),
	}
}

// ackTier is the part of the scheme whose copies acknowledge writes and
// prove durability: the log tier when split, every copy otherwise.
func (c Config) ackTier() Config {
	if c.Split() {
		return c.LogTier()
	}
	return c
}

// durabilityLost is the model's read-loss proxy with down acknowledging
// copies and downPage page copies dark: the acknowledging tier is below its
// read quorum — the acked suffix can no longer be proven — or, in a split
// scheme, every page copy is down at once, because materialized bases below
// the log-GC floor exist nowhere else.
func (c Config) durabilityLost(down, downPage int) bool {
	return !c.ackTier().ReadAvailable(down) || (c.Split() && c.PageV()-downPage < 1)
}

// writeBlocked reports whether write availability is gone with down
// acknowledging copies dark.
func (c Config) writeBlocked(down int) bool { return !c.ackTier().WriteAvailable(down) }
