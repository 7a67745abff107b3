package chaos

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/storage"
	"aurora/internal/volume"
)

// gate is what a fault kind must show once its faults heal, beyond the
// ledger's integrity rules. A scenario can hold every integrity rule and
// still prove nothing: the fault never reached the machinery it targets (no
// redelivery under loss, no hedge past a slow replica, nothing repaired).
// So each scenario is also held to availability — outside the deadline
// stressor every write is acknowledged and at most readLoss of the reads go
// unanswered — and to its fault's engaged check.
type gate struct {
	readLoss float64
	engaged  func(r *run, h volume.HealthStats) error
}

// gates is the expectation table. A fault kind missing from it is held to
// availability alone.
var gates = map[FaultKind]gate{
	// A read whose response is dropped can fail outright; with CPU
	// contention up to a seventh of a committers run's reads did.
	FaultPacketLoss: {readLoss: 0.25, engaged: func(_ *run, h volume.HealthStats) error {
		if h.Retries == 0 {
			return errors.New("no write was redelivered under packet loss")
		}
		return nil
	}},
	FaultGraySlow: {engaged: func(_ *run, h volume.HealthStats) error {
		if h.Hedges == 0 {
			return errors.New("no read was hedged past the slow replicas")
		}
		return nil
	}},
	FaultCorruptPage: {engaged: func(r *run, _ volume.HealthStats) error {
		if len(r.victims) == 0 {
			return errors.New("no base image was corrupted")
		}
		for _, v := range r.victims {
			if v.n.Stats().ScrubsRepaired == 0 {
				return fmt.Errorf("the scrubber repaired nothing on %s", v.n.NodeID())
			}
		}
		return nil
	}},
	FaultWipeRepair: {engaged: func(r *run, _ volume.HealthStats) error { return r.victimsCaughtUp() }},
}

// victim is a node a fault broke, with the PG whose peers it is judged by.
type victim struct {
	pg core.PGID
	n  *storage.Node
}

// checkGates holds a finished, healed scenario to its fault's gate.
func (r *run) checkGates(res *ScenarioResult) []string {
	g := gates[r.sc.Fault]
	var viols []string
	if r.sc.Stress != StressDeadline {
		if res.WritesOK < res.Writes {
			viols = append(viols, fmt.Sprintf("availability: %d of %d writes acknowledged", res.WritesOK, res.Writes))
		}
		if float64(res.ReadsOK) < (1-g.readLoss)*float64(res.Reads) {
			viols = append(viols, fmt.Sprintf("availability: %d of %d reads answered", res.ReadsOK, res.Reads))
		}
	}
	if g.engaged != nil {
		if err := g.engaged(r, res.Health); err != nil {
			viols = append(viols, "engagement: "+err.Error())
		}
	}
	return viols
}

// victimsCaughtUp waits, up to settleTimeout, for every repaired victim's
// SCL to reach its peers'. A repair that copied nothing leaves the victim
// behind for good: its peers have coalesced away the history gossip would
// need.
func (r *run) victimsCaughtUp() error {
	deadline := time.Now().Add(settleTimeout)
	for _, v := range r.victims {
		for {
			var peers core.LSN
			for _, p := range r.st.fleet.Replicas(v.pg) {
				if p != v.n {
					peers = max(peers, p.SCL())
				}
			}
			got := v.n.SCL()
			if got >= peers {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("repaired %s holds SCL %d, its peers %d", v.n.NodeID(), got, peers)
			}
			time.Sleep(pollInterval)
		}
	}
	return nil
}
