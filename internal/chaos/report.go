package chaos

import (
	"fmt"
	"strings"

	"aurora/internal/volume"
)

// Results is a whole campaign's verdicts.
type Results struct {
	Seed      int64
	Tier      string
	Count     int
	Scenarios []ScenarioResult
}

// Passed reports whether every scenario ended pass or flaky. Flaky does
// not fail the run — it is a signal for the table and the summary, not a
// verdict against the cluster.
func (r *Results) Passed() bool {
	for _, s := range r.Scenarios {
		if s.Outcome == OutcomeFail {
			return false
		}
	}
	return true
}

// ReplayCommand is the one-liner that reproduces a scenario: same master
// seed and count keep the matrix draw identical, -only narrows to the
// failing cell.
func (r *Results) ReplayCommand(sc Scenario) string {
	return fmt.Sprintf("go run ./cmd/aurora-chaos -tier %s -seed %d -count %d -only %s",
		r.Tier, r.Seed, r.Count, sc.Name())
}

// Table renders the scenario × stressor cross-tab as a markdown table.
// Cells aggregate every instance of that cell in the campaign: any fail
// wins, then any flaky, then pass; a dash marks a cell the draw never
// visited. Multi-instance cells carry a ×N count.
func (r *Results) Table() string {
	type cell struct{ pass, flaky, fail int }
	cells := map[FaultKind]map[StressKind]*cell{}
	for _, s := range r.Scenarios {
		row := cells[s.Fault]
		if row == nil {
			row = map[StressKind]*cell{}
			cells[s.Fault] = row
		}
		c := row[s.Stress]
		if c == nil {
			c = &cell{}
			row[s.Stress] = c
		}
		switch s.Outcome {
		case OutcomeFail:
			c.fail++
		case OutcomeFlaky:
			c.flaky++
		default:
			c.pass++
		}
	}
	var b strings.Builder
	b.WriteString("| fault \\ stressor |")
	for _, st := range Stressors {
		fmt.Fprintf(&b, " %s |", st)
	}
	b.WriteString("\n|---|")
	for range Stressors {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, f := range Faults {
		fmt.Fprintf(&b, "| %s |", f)
		for _, st := range Stressors {
			c := cells[f][st]
			switch {
			case c == nil:
				b.WriteString(" – |")
			case c.fail > 0:
				fmt.Fprintf(&b, " **FAIL** ×%d |", c.fail)
			case c.flaky > 0:
				fmt.Fprintf(&b, " flaky ×%d |", c.flaky)
			case c.pass > 1:
				fmt.Fprintf(&b, " pass ×%d |", c.pass)
			default:
				b.WriteString(" pass |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Summary is the campaign's one-paragraph footer: totals, op counts, the
// gray-failure machinery's counters, and a replay command for every
// non-passing scenario.
func (r *Results) Summary() string {
	var pass, flaky, fail, writes, writesOK, reads, readsOK int
	var h volume.HealthStats
	for _, s := range r.Scenarios {
		switch s.Outcome {
		case OutcomeFail:
			fail++
		case OutcomeFlaky:
			flaky++
		default:
			pass++
		}
		writes += s.Writes
		writesOK += s.WritesOK
		reads += s.Reads
		readsOK += s.ReadsOK
		h.Retries += s.Health.Retries
		h.Hedges += s.Health.Hedges
		h.HedgeWins += s.Health.HedgeWins
		h.AutoRepairs += s.Health.AutoRepairs
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios: %d pass, %d flaky, %d fail (seed %d, tier %s)\n",
		len(r.Scenarios), pass, flaky, fail, r.Seed, r.Tier)
	fmt.Fprintf(&b, "ops: %d/%d writes acked, %d/%d reads verified\n", writesOK, writes, readsOK, reads)
	fmt.Fprintf(&b, "machinery: %d write retries, %d hedged reads (%d won), %d auto repairs\n",
		h.Retries, h.Hedges, h.HedgeWins, h.AutoRepairs)
	for _, s := range r.Scenarios {
		if s.Outcome == OutcomePass {
			continue
		}
		fmt.Fprintf(&b, "%s %s:\n", s.Outcome, s.Name())
		for _, v := range s.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
		fmt.Fprintf(&b, "  replay: %s\n", r.ReplayCommand(s.Scenario))
	}
	return b.String()
}
