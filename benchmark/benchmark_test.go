package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testPlan is a 300 ms window at 1/20 of the rows, through the same code
// as a full run.
func testPlan() plan {
	return plan{rowsDiv: 20, setups: 1, warmup: 50 * time.Millisecond,
		window: 300 * time.Millisecond, slice: 100 * time.Millisecond, recoveries: 1, probeDiv: 100}
}

// TestEveryWorkloadReportsEveryMetric runs both passes of each workload and
// requires every metric named in spec.go to be present, finite and carrying
// its unit, and the ledger to verify after the window and after a failover.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for i := range specs {
		s := &specs[i]
		for trace := 0; trace <= 1; trace++ {
			d, err := runPass(s, testPlan(), 1, trace, out)
			if err != nil {
				t.Fatalf("%s trace %d: %v", s.name, trace, err)
			}
			if d.LedgerMismatches != 0 || !d.Correct {
				t.Errorf("%s trace %d: %d ledger mismatches, correct=%v, first errors %v",
					s.name, trace, d.LedgerMismatches, d.Correct, d.FirstErrors)
			}
			if d.Attempted == 0 || d.Failed > d.Attempted {
				t.Errorf("%s trace %d: failed %d of %d attempted", s.name, trace, d.Failed, d.Attempted)
			}
			line, err := d.resultLine()
			if err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal(line, &res); err != nil || len(res) != 4 {
				t.Errorf("%s trace %d: result line has %d keys (%v): %s", s.name, trace, len(res), err, line)
			}
			if trace == 1 {
				if _, err := os.Stat(d.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", s.name, err)
				}
			}
		}
	}
}

// TestCorruptedLedgerEntryIsAFailedOperation makes the ledger claim a
// version that was never written and expects the read-back to report it.
func TestCorruptedLedgerEntryIsAFailedOperation(t *testing.T) {
	s := specByName("write_only")
	p := testPlan()
	p.recoveries = 0
	r := newRun(s, s.rows/p.rowsDiv, 1)
	if _, err := r.setUp(p, newClusterSystem); err != nil {
		t.Fatal(err)
	}
	defer r.sys.close()
	r.acked[3] = 7
	attempted, failed, _ := r.durability(p)
	d := newDetail(s, 0, 1, p)
	r.totals(d, attempted, failed)
	if d.LedgerMismatches != 1 || d.Failed != 1 || d.Correct {
		t.Fatalf("mismatches %d, failed %d, correct %v; want 1, 1, false", d.LedgerMismatches, d.Failed, d.Correct)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the driver
// reads, in step with spec.go, which the program reports from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bj.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command %q", got)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bj.Paths)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from spec.go or is over 200 characters", i, w.Name, w.Why)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %+v differs from %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, want %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

// TestCompareFlagsWorseAndUnresolved feeds -compare two reports that differ
// in one gated metric and one noisy one.
func TestCompareFlagsWorseAndUnresolved(t *testing.T) {
	mk := func(tps float64, p50 []float64) report {
		rep := report{Workloads: make(map[string]passReport)}
		for _, s := range specs {
			d := &detail{Metrics: make(map[string]value)}
			for _, def := range endToEnd {
				d.Metrics[def.name] = value{Value: 100, Unit: def.unit}
			}
			d.Metrics["txn_per_s"] = value{Value: tps, Unit: "1/s"}
			d.Metrics["txn_p50_us"] = value{Value: p50[0], Unit: "us", Slices: p50}
			rep.Workloads[s.name] = passReport{Measured: d}
		}
		return rep
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, mk(1000, []float64{100, 100, 100, 100})); err != nil {
		t.Fatal(err)
	}
	// B's quiet decile of p50 is better than A's, but its quartile is far
	// from it: the host was never quiet for long.
	if err := writeJSON(b, mk(500, []float64{90, 130, 130, 130, 140, 140, 140, 140})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareReports(&out, a, b); err == nil {
		t.Error("halved throughput passed the comparison")
	}
	if n := strings.Count(out.String(), "WORSE"); n != len(specs) {
		t.Errorf("%d WORSE verdicts, want %d:\n%s", n, len(specs), out.String())
	}
	if n := strings.Count(out.String(), "unresolved"); n != len(specs) {
		t.Errorf("%d unresolved verdicts, want %d:\n%s", n, len(specs), out.String())
	}
	out.Reset()
	if err := compareReports(&out, a, a); err != nil {
		t.Errorf("a report differs from itself: %v", err)
	}
}
