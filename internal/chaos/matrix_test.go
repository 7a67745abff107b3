package chaos

import (
	"context"
	"strings"
	"testing"
)

// TestMatrixSlice runs a seeded slice of the matrix end to end — enough to
// exercise the harness machinery (stacks, timelines, ledger verification,
// teardown) inside the regular test suite. The CI-sized campaign lives
// behind `make chaos-matrix-smoke`.
func TestMatrixSlice(t *testing.T) {
	res, err := Run(context.Background(), Config{Seed: 1, Count: 3, Out: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("ran %d scenarios, want 3", len(res.Scenarios))
	}
	if !res.Passed() {
		t.Fatalf("matrix slice failed:\n%s", res.Summary())
	}
	for _, s := range res.Scenarios {
		if s.WritesOK == 0 || s.ReadsOK == 0 {
			t.Fatalf("%s: no verified traffic (%d writes, %d reads)", s.Name(), s.WritesOK, s.ReadsOK)
		}
	}
}

// TestMatrixBackupScenario pins the PITR leg: a backup/committers scenario
// must produce a restore window and verify it.
func TestMatrixBackupScenario(t *testing.T) {
	sc := Scenario{Index: 0, Fault: FaultBackup, Stress: StressCommitters, Seed: 11}
	res := runScenario(context.Background(), sc, (*run).makeFault)
	if res.failed() {
		t.Fatalf("backup scenario violations: %v", res.Violations)
	}
	if res.WritesOK == 0 {
		t.Fatal("no acked writes")
	}
}

// TestMatrixOnlyFilter: -only narrows the campaign without changing the draw,
// and without a count it draws one full sweep, so a fault's filter runs each
// of its stressors exactly once.
func TestMatrixOnlyFilter(t *testing.T) {
	res, err := Run(context.Background(), Config{Seed: 3, Only: "crash/"})
	if err != nil {
		t.Fatal(err)
	}
	if sweep := len(Faults) * len(Stressors); res.Count != sweep {
		t.Fatalf("-only without a count drew %d scenarios, want one sweep of %d", res.Count, sweep)
	}
	if len(res.Scenarios) != len(Stressors) {
		t.Fatalf("filter matched %d scenarios, want 4", len(res.Scenarios))
	}
	for _, s := range res.Scenarios {
		if s.Fault != FaultCrash {
			t.Fatalf("filter leaked %s", s.Name())
		}
	}
	if !res.Passed() {
		t.Fatalf("crash scenarios failed:\n%s", res.Summary())
	}
}

// gatedUnderEveryStressor runs one fault once under each stressor and fails
// on any violation: integrity, availability, or the fault's gate.
func gatedUnderEveryStressor(t *testing.T, kind FaultKind) {
	t.Helper()
	for i, stress := range Stressors {
		sc := Scenario{Index: i, Fault: kind, Stress: stress, Seed: 32 + int64(i)}
		if res := runScenario(context.Background(), sc, (*run).makeFault); res.failed() {
			t.Errorf("%s: %v", sc.Name(), res.Violations)
		}
	}
}

// A single storage node's crash costs no write and no read (§2.1).
func TestSingleNodeCrashIsInvisible(t *testing.T) { gatedUnderEveryStressor(t, FaultCrash) }

// Losing a whole AZ costs no write: 4/6 survives AZ loss (§2.1).
func TestAZOutageWritesContinue(t *testing.T) { gatedUnderEveryStressor(t, FaultAZOutage) }

// A wiped segment is re-replicated until it holds what its peers hold (§2.2).
func TestWipeRepairCatchesUp(t *testing.T) { gatedUnderEveryStressor(t, FaultWipeRepair) }

// A corrupted base image is found and repaired by the victim's scrubber,
// and no reader is served its bytes.
func TestCorruptionHealedByScrub(t *testing.T) { gatedUnderEveryStressor(t, FaultCorruptPage) }

// The gray regime: packet loss must be ridden out by write redelivery, and
// a slow first-choice replica by hedged reads — both must actually engage.
func TestGrayRegimeMachineryEngages(t *testing.T) {
	gatedUnderEveryStressor(t, FaultPacketLoss)
	gatedUnderEveryStressor(t, FaultGraySlow)
}

// TestScenarioAbortsOnContext: a context canceled before the run injects
// nothing, and one canceled inside a fault's Inject heals that fault on the
// way out; either way the scenario reports the abort.
func TestScenarioAbortsOnContext(t *testing.T) {
	sc := Scenario{Fault: FaultCrash, Stress: StressBigTx, Seed: 9}
	reportsAbort := func(t *testing.T, res ScenarioResult) {
		t.Helper()
		for _, v := range res.Violations {
			if strings.HasPrefix(v, "aborted: ") {
				return
			}
		}
		t.Fatalf("abort not reported: %v", res.Violations)
	}

	t.Run("canceled before the run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ff fakeFault
		res := runScenario(ctx, sc, func(*run) Fault { return ff.fault("never") })
		reportsAbort(t, res)
		if ff.injects != 0 {
			t.Fatal("fault injected after the context fired")
		}
	})

	t.Run("canceled inside Inject", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		healed := false
		res := runScenario(ctx, sc, func(*run) Fault {
			return Fault{
				Name:   "inject then abort",
				Inject: func(context.Context) { cancel() },
				Heal:   func(context.Context) error { healed = true; return nil },
			}
		})
		reportsAbort(t, res)
		if !healed {
			t.Fatal("aborted scenario left its fault injected")
		}
	})
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
