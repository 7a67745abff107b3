package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

// Config selects a matrix run.
type Config struct {
	// Seed is the master seed: it shuffles the matrix and derives every
	// scenario's own seed, so the same Seed+Tier+Count replays the same
	// campaign.
	Seed int64
	// Tier picks the default scenario count: "smoke" (12, CI-sized) or
	// "full" (three sweeps of the matrix, 3 × len(Faults) × len(Stressors) —
	// nightly-sized).
	Tier string
	// Count overrides the tier's scenario count when > 0.
	Count int
	// Only filters scenarios to those whose fault/stressor name contains
	// this substring — the replay knob printed with every failure. Without
	// a Count, a smoke-tier Only draws one full sweep, so every matching
	// cell runs once.
	Only string
	// Out receives per-scenario progress lines; nil discards them.
	Out io.Writer
}

// Outcomes of one scenario.
const (
	OutcomePass  = "pass"
	OutcomeFail  = "FAIL"
	OutcomeFlaky = "flaky" // failed once, passed on an identical-seed retry
)

// ScenarioResult is one scenario's verdict with everything needed to judge
// and replay it.
type ScenarioResult struct {
	Scenario
	Outcome    string
	Violations []string // first run's violations (kept when a retry passes)
	Writes     int
	WritesOK   int
	Reads      int
	ReadsOK    int
	// Health is the fleet's gray-failure counters once the last fault
	// healed: what the gates judge engagement by.
	Health volume.HealthStats
}

func (r ScenarioResult) failed() bool { return len(r.Violations) > 0 }

// Run executes the campaign: each scenario gets a private cluster, a
// seeded checksumming workload, its fault timeline, and the invariant
// checks. A scenario that fails is retried once with the identical seed;
// passing the retry classifies it flaky rather than failed — the
// distinction the nightly table exists to surface.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	if cfg.Tier == "" {
		cfg.Tier = "smoke"
	}
	count := cfg.Count
	if count <= 0 {
		sweep := len(Faults) * len(Stressors)
		switch {
		case cfg.Tier == "full":
			count = 3 * sweep
		case cfg.Only != "":
			count = sweep // every cell once, so the filter sees each cell it matches
		default:
			count = 12
		}
	}
	res := &Results{Seed: cfg.Seed, Tier: cfg.Tier, Count: count}
	for _, sc := range Plan(cfg.Seed, count) {
		if cfg.Only != "" && !strings.Contains(sc.Name(), cfg.Only) {
			continue
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		fmt.Fprintf(out, "[%2d/%d] %-24s seed=%-12d ", sc.Index+1, count, sc.Name(), sc.Seed)
		r := runScenario(ctx, sc, (*run).makeFault)
		r.Outcome = OutcomePass
		if r.failed() {
			r.Outcome = OutcomeFail
			if ctx.Err() == nil {
				fmt.Fprintf(out, "fail(%d), retry... ", len(r.Violations))
				if retry := runScenario(ctx, sc, (*run).makeFault); !retry.failed() {
					r.Outcome = OutcomeFlaky
				}
			}
		}
		fmt.Fprintln(out, r.Outcome)
		res.Scenarios = append(res.Scenarios, r)
	}
	return res, ctx.Err()
}

// runScenario provisions, stresses, heals, verifies and tears down one
// scenario, returning every invariant violation observed. makeFault draws
// each fault instance its timeline schedules: (*run).makeFault, or a test's
// scripted fault.
func runScenario(ctx context.Context, sc Scenario, makeFault func(*run) Fault) ScenarioResult {
	res := ScenarioResult{Scenario: sc}
	baseline := settleGoroutines()

	st, err := newStack(sc)
	if err != nil {
		res.Violations = append(res.Violations, "provision: "+err.Error())
		return res
	}
	r := &run{sc: sc, st: st, led: NewLedger(), rng: rand.New(rand.NewSource(sc.Seed ^ 0x5eed))}
	nclients := 3
	if sc.Stress == StressCommitters {
		nclients = 8
	}
	clients := newClients(nclients, sc, st.db, r.led)
	tl := r.buildTimeline(makeFault)

	stopWatch := watchVDL(st.db)
	for _, c := range clients {
		c.seed(ctx)
	}

	// The tick loop: fault schedule advances between workload rounds, two
	// op rounds per tick, plus healed ticks after the last window closes.
	aborted := false
	for t := 0; t <= tl.End()+4; t++ {
		if ctx.Err() != nil {
			aborted = true
			break
		}
		tl.Tick(ctx, t)
		round(ctx, clients)
		round(ctx, clients)
	}
	// Heal under a detached context: an abort must not strand injected
	// faults.
	for _, e := range tl.HealAll(context.WithoutCancel(ctx)) {
		res.Violations = append(res.Violations, "heal: "+e.Error())
	}
	res.Health = st.fleet.Health().Stats()
	for _, c := range clients {
		res.Writes += c.writes
		res.WritesOK += c.writesOK
		res.Reads += c.reads
		res.ReadsOK += c.readsOK
		res.Violations = append(res.Violations, c.violations...)
	}

	if !aborted {
		res.Violations = append(res.Violations, verifyRecovered(ctx, st.db, r.led, allKeys(clients))...)
		if len(r.windows) > 0 {
			res.Violations = append(res.Violations, verifyRestore(ctx, st, r.led, allKeys(clients), r.windows[len(r.windows)-1])...)
		}
		res.Violations = append(res.Violations, r.checkGates(&res)...)
	}

	if regressions := stopWatch(); regressions > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("VDL regressed %d times", regressions))
	}
	st.teardown()
	if settled := settleGoroutines(); settled > baseline {
		res.Violations = append(res.Violations, fmt.Sprintf("goroutine leak: %d after teardown, baseline %d", settled, baseline))
	}
	if aborted {
		res.Violations = append(res.Violations, "aborted: "+ctx.Err().Error())
	}
	return res
}

// verifyRecovered holds the cluster to a bounded recovery time: after the
// last heal, a fully clean read-back pass (every key, cached and snapshot
// paths) must complete within the bound. Read errors are transient
// and retried; wrong bytes are permanent violations immediately.
func verifyRecovered(ctx context.Context, db *engine.DB, led *Ledger, keys []string) []string {
	bound := 10 * time.Second
	deadline := time.Now().Add(bound)
	for {
		viols, err := verifyOnce(ctx, db, led, keys)
		if len(viols) > 0 {
			return viols
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return []string{fmt.Sprintf("recovery exceeded %v bound: %v", bound, err)}
		}
		time.Sleep(pollInterval)
	}
}

// verifyRestore replays the volume as of the scenario's last backup sweep
// onto a brand-new fleet, recovers it, and holds every key to the ledger's
// restore-window rule.
func verifyRestore(ctx context.Context, st *stack, led *Ledger, keys []string, w window) (viols []string) {
	rf, _, err := volume.RestoreFleet(volume.FleetConfig{
		Name:     st.name + "r",
		Geometry: core.UniformGeometry(2),
		Net:      netsim.New(netsim.FastLocal()),
		Disk:     disk.FastLocal(),
		Store:    st.store,
	}, w.asOf)
	if err != nil {
		return []string{"restore: " + err.Error()}
	}
	defer rf.Stop()
	rdb, _, err := engine.Recover(ctx, rf, volume.ClientConfig{WriterNode: netsim.NodeID(st.name + "r-writer"), WriterAZ: 0}, engine.Config{})
	if err != nil {
		return []string{"restore recovery: " + err.Error()}
	}
	defer rdb.Close()
	for _, key := range keys {
		val, found, err := rdb.Get([]byte(key))
		if err != nil {
			viols = append(viols, fmt.Sprintf("restored read %s: %v", key, err))
			continue
		}
		if verr := led.VerifyRestored(key, w.s0, w.s1, val, found); verr != nil {
			viols = append(viols, "restored: "+verr.Error())
		}
	}
	return viols
}

func allKeys(clients []*client) []string {
	var out []string
	for _, c := range clients {
		out = append(out, c.keys...)
	}
	return out
}
