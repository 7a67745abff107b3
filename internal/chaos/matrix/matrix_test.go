package matrix

import (
	"context"
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
	res := runScenario(context.Background(), sc)
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

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
