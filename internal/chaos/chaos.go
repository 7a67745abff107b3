// Package chaos is the seeded fault-injection harness: a PRNG draws
// scenarios from the cross product of faults (crash, wipe+repair, AZ outage,
// packet loss, gray-slow, page corruption, live growth, backup/restore,
// pagestore lag, noisy neighbor) and stressors (rapid kill/restore cycles,
// concurrent committers, large multi-page transactions, commit deadlines),
// runs a checksumming workload through each on its own cluster, and checks
// the invariants the paper's availability claims reduce to: zero checksum
// mismatches, no lost acknowledged commits, monotone VDL, bounded recovery
// after the last heal, no goroutine leaks — and, per fault, that the cluster
// stayed available and that the fault reached the machinery it targets
// (gates.go). Every failure prints a one-line replay command carrying the
// seed.
//
// Faults are context-aware: both injection and healing observe a
// context.Context, so a scenario under a deadline can abort its schedule
// cleanly. Timed compositions are expressed with Timeline, which injects and
// heals faults at deterministic tick offsets while the workload runs between
// ticks.
package chaos

import (
	"context"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

// Scenarios pace fault schedules by deterministic tick counts, not
// wall-clock windows, so a loaded CI runner exercises exactly the same
// schedule as an idle machine. These are the residual places where
// wall-clock time is unavoidable.
const (
	// settleTimeout bounds waits for background machinery (repair,
	// gossip convergence) to finish after the last fault heals.
	settleTimeout = 2 * time.Second
	// pollInterval paces polls inside a settle or recovery window.
	pollInterval = 5 * time.Millisecond
	// sampleInterval paces the VDL monotonicity watcher.
	sampleInterval = 50 * time.Microsecond
	// graySlowDelay is the per-message delay a gray-slow fault injects:
	// large against the simulated network's RTT, small against a
	// scenario's wall-clock budget.
	graySlowDelay = 2 * time.Millisecond
)

// Fault is one injectable failure with its undo. Both halves observe ctx:
// a heal that needs fleet cooperation (e.g. re-replication) gives up when
// the context fires rather than hanging the scenario. Heal reports whether
// the undo itself succeeded; a fleet healthy enough to probe may still be
// too degraded to repair, and that is a result, not a panic.
type Fault struct {
	Name   string
	Inject func(ctx context.Context)
	Heal   func(ctx context.Context) error
}

// CrashNode crashes one storage node.
func CrashNode(f *volume.Fleet, pg core.PGID, replica int) Fault {
	n := f.Node(pg, replica)
	return Fault{
		Name:   fmt.Sprintf("crash %s", n.NodeID()),
		Inject: func(context.Context) { n.Crash() },
		Heal: func(context.Context) error {
			n.Restart()
			n.GossipOnce()
			return nil
		},
	}
}

// WipeAndRepairNode destroys a segment's disk; healing re-replicates it. A
// failed repair is returned as a heal error, not panicked — the workload
// keeps judging the cluster either way.
func WipeAndRepairNode(f *volume.Fleet, pg core.PGID, replica int) Fault {
	n := f.Node(pg, replica)
	return Fault{
		Name:   fmt.Sprintf("wipe %s", n.NodeID()),
		Inject: func(context.Context) { n.Wipe() },
		Heal: func(ctx context.Context) error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("repair %s: %w", n.NodeID(), err)
			}
			if err := f.RepairSegment(pg, replica); err != nil {
				return fmt.Errorf("repair %s: %w", n.NodeID(), err)
			}
			return nil
		},
	}
}

// AZOutage fails a whole availability zone.
func AZOutage(net *netsim.Network, az netsim.AZ) Fault {
	return Fault{
		Name:   fmt.Sprintf("AZ %d outage", az),
		Inject: func(context.Context) { net.SetAZDown(az, true) },
		Heal:   func(context.Context) error { net.SetAZDown(az, false); return nil },
	}
}

// PacketLoss silently drops a fraction of every message on the network —
// the gray path regime. The write path must ride it out with redelivery,
// the read path with hedging; no committed data may be lost.
func PacketLoss(net *netsim.Network, prob float64) Fault {
	return Fault{
		Name:   fmt.Sprintf("packet loss %.0f%%", prob*100),
		Inject: func(context.Context) { net.SetDropProb(prob) },
		Heal:   func(context.Context) error { net.SetDropProb(0); return nil },
	}
}

// Step schedules one fault on a Timeline: the fault injects when the
// timeline reaches tick Start and heals Duration ticks later (a Duration of
// 0 heals on the next tick). Overlapping steps compose failures; repeating
// the same fault in back-to-back windows models rapid kill/restore cycles.
type Step struct {
	Start    int
	Duration int
	Fault    Fault
}

// Timeline drives a set of timed fault steps from a deterministic tick
// counter. The caller owns the clock: it calls Tick once per workload round,
// so schedules replay exactly under any machine load. Heal failures
// accumulate; HealAll force-heals whatever is still active — including
// steps whose start never arrived, which are skipped, not injected.
type Timeline struct {
	Steps []Step

	active []bool
	done   []bool
	errs   []error
}

// Tick fires every step due at tick t: steps whose window opens inject,
// steps whose window closed heal. Injection order follows Steps order.
func (tl *Timeline) Tick(ctx context.Context, t int) {
	tl.ensure()
	for i := range tl.Steps {
		s := &tl.Steps[i]
		if !tl.active[i] && !tl.done[i] && t >= s.Start {
			s.Fault.Inject(ctx)
			tl.active[i] = true
		}
		if tl.active[i] && t >= s.Start+s.Duration+1 {
			tl.healStep(ctx, i)
		}
	}
}

// HealAll heals every still-active step (in Steps order) and marks pending
// steps done without injecting them. It returns the accumulated heal
// errors, including those from earlier Ticks.
func (tl *Timeline) HealAll(ctx context.Context) []error {
	tl.ensure()
	for i := range tl.Steps {
		if tl.active[i] {
			tl.healStep(ctx, i)
		}
		tl.done[i] = true
	}
	return tl.errs
}

// End returns the first tick at which every step has injected and healed.
func (tl *Timeline) End() int {
	end := 0
	for _, s := range tl.Steps {
		if e := s.Start + s.Duration + 1; e > end {
			end = e
		}
	}
	return end
}

func (tl *Timeline) healStep(ctx context.Context, i int) {
	if err := tl.Steps[i].Fault.Heal(ctx); err != nil {
		tl.errs = append(tl.errs, fmt.Errorf("%s: %w", tl.Steps[i].Fault.Name, err))
	}
	tl.active[i] = false
	tl.done[i] = true
}

func (tl *Timeline) ensure() {
	if tl.active == nil {
		tl.active = make([]bool, len(tl.Steps))
		tl.done = make([]bool, len(tl.Steps))
	}
}
