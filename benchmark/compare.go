package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// ownSpread is a run's own spread of a metric: how far the quiet quartile
// of its slice values lies from the reported value, as a share of it. A
// metric whose quiet side is not flat was measured on a host that was never
// quiet. Count ratios have no slices and report 0.
func ownSpread(v value) float64 {
	if len(v.Slices) < 4 {
		return 0
	}
	s := append([]float64(nil), v.Slices...)
	sort.Float64s(s)
	lo, hi := quantile(s, 0.25), quantile(s, 0.75)
	return math.Min(math.Abs(ratio(lo-v.Value, v.Value)), math.Abs(ratio(hi-v.Value, v.Value)))
}

// compareReports prints, per workload and end-to-end metric, both values,
// how far B is from A and the bound, and fails when B is worse than A by
// more than a bound. A metric inside its bound whose own spread, in either
// run, is wider than the bound is unresolved, not unchanged.
func compareReports(w io.Writer, pathA, pathB string) error {
	var a, b report
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "A = %s (%s, seed %d)\nB = %s (%s, seed %d)\n",
		pathA, a.Env.GitCommit, a.Env.Seed, pathB, b.Env.GitCommit, b.Env.Seed)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B vs A", "bound", "verdict")
	for _, s := range specs {
		ma, mb := a.Workloads[s.name].Measured, b.Workloads[s.name].Measured
		if ma == nil || mb == nil {
			return fmt.Errorf("workload %s missing from a report", s.name)
		}
		for _, def := range endToEnd {
			va, vb := ma.Metrics[def.name], mb.Metrics[def.name]
			change := ratio(vb.Value-va.Value, va.Value)
			worsening := change
			if def.better == higher {
				worsening = -change
			}
			verdict := "ok"
			switch {
			case worsening > def.bound:
				verdict = "WORSE"
				worse++
			case ownSpread(va) > def.bound || ownSpread(vb) > def.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				s.name, def.name, va.Value, vb.Value, 100*change, 100*def.bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
