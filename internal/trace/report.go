package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PathSeg is one segment of a critical path: the span that the traced
// request was waiting on during Dur of its lifetime.
type PathSeg struct {
	Name string
	Dur  time.Duration
}

// CriticalPath attributes the root span's entire duration to the chain of
// spans the request was actually waiting on, walking backward from the
// root's end: at each instant the blamed span is the deepest child whose
// interval covers it; time covered by no ended child is the span's own
// (self) time. Segments with the same name are merged. By construction the
// segment durations sum exactly to the root's duration, so the table a
// report prints is a true decomposition of the end-to-end latency — the
// property the §3.1/§4.2 "where does a commit's time go" analysis needs.
//
// Concurrent children (the per-replica quorum flights) are handled by the
// backward walk: the child that ends last before the current instant is the
// one the parent was waiting on, which for a 4/6 quorum is the 4th-fastest
// replica — exactly the replica that gated the commit.
//
// A wait span (quorum.wait, vdl.wait: the names in .wait) is transparent: it
// records that its parent was blocked, not on what. The time it shares with
// sibling work — the batch it waited for, in flight — belongs to that work and
// what lies under it; only the residue no sibling covers is the wait's. (A
// wait ends last by nature, and would otherwise hide all it waited for.)
func CriticalPath(root *SpanInfo) []PathSeg {
	acc := make(map[string]time.Duration)
	var order []string
	add := func(name string, d time.Duration) {
		if d <= 0 {
			return
		}
		if _, ok := acc[name]; !ok {
			order = append(order, name)
		}
		acc[name] += d
	}
	// latest returns s's child on the path at instant cur — the latest-ending
	// ended child, wait or work as asked, live strictly before cur — and its
	// end clipped to cur.
	latest := func(s *SpanInfo, cur time.Duration, wait bool) (pick *SpanInfo, end time.Duration) {
		for _, k := range s.Children {
			if k.End == 0 || k.Start >= cur || isWait(k.Name) != wait {
				continue
			}
			if e := min(k.End, cur); pick == nil || e > end {
				pick, end = k, e
			}
		}
		return pick, end
	}
	var walk func(s *SpanInfo, lo, hi time.Duration)
	walk = func(s *SpanInfo, lo, hi time.Duration) {
		for cur := hi; cur > lo; {
			work, end := latest(s, cur, false)
			floor := lo // where the work below cur ended
			if work != nil {
				floor = max(end, lo)
			}
			if floor == cur {
				cur = max(work.Start, lo)
				walk(work, cur, end)
				continue
			}
			// Nothing was working between floor and cur: that is a wait's, as
			// far as one covers it, and otherwise the parent itself running.
			if wait, wend := latest(s, cur, true); wait != nil && wend > floor {
				add(s.Name, cur-wend)
				cur = max(wait.Start, floor)
				walk(wait, cur, wend)
				continue
			}
			add(s.Name, cur-floor)
			cur = floor
		}
	}
	if root.End == 0 {
		return nil
	}
	walk(root, root.Start, root.End)
	segs := make([]PathSeg, 0, len(order))
	for _, name := range order {
		segs = append(segs, PathSeg{Name: name, Dur: acc[name]})
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Dur != segs[j].Dur {
			return segs[i].Dur > segs[j].Dur
		}
		return segs[i].Name < segs[j].Name
	})
	return segs
}

// isWait reports whether a span of this name only records that its parent was
// blocked.
func isWait(name string) bool { return strings.HasSuffix(name, ".wait") }

// PathTotal sums a critical path's segments (equals the root duration).
func PathTotal(segs []PathSeg) time.Duration {
	var sum time.Duration
	for _, s := range segs {
		sum += s.Dur
	}
	return sum
}

// Render draws the trace's span tree with offsets, durations and
// annotations — the exemplar view a latency report prints.
//
//	commit 1.83ms txn=42
//	├─ commit.latch @2µs 1µs
//	├─ commit.queue @5µs 210µs
//	└─ group.ship @520µs 1.1ms
//	   ├─ batch.ship @521µs 1.09ms pg=2 records=3
//	   ...
func (t *Trace) Render() string {
	var b strings.Builder
	renderSpan(&b, t.Snapshot(), "", true, true)
	return b.String()
}

func renderSpan(b *strings.Builder, si *SpanInfo, prefix string, last, root bool) {
	if !root {
		if last {
			b.WriteString(prefix + "└─ ")
		} else {
			b.WriteString(prefix + "├─ ")
		}
	}
	b.WriteString(si.Name)
	if !root {
		fmt.Fprintf(b, " @%v", si.Start.Round(time.Microsecond))
	}
	if si.End > 0 {
		fmt.Fprintf(b, " %v", si.Duration().Round(time.Microsecond))
	} else {
		b.WriteString(" (unfinished)")
	}
	for _, a := range si.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Val)
	}
	b.WriteByte('\n')
	childPrefix := prefix
	if !root {
		if last {
			childPrefix += "   "
		} else {
			childPrefix += "│  "
		}
	}
	for i, c := range si.Children {
		renderSpan(b, c, childPrefix, i == len(si.Children)-1, false)
	}
}

// FormatStages renders the attribution table: one line per stage with
// counts, mean, tail percentiles and the share of the total traced time.
// Concurrent stages (per-replica flights) can push the share sum past 100%
// — they overlap; the critical path, not the share column, is the true
// decomposition.
func FormatStages(stages []StageStat) string {
	if len(stages) == 0 {
		return "(no traces collected)\n"
	}
	var total time.Duration
	for _, s := range stages {
		total += s.Total
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %10s %10s %10s %10s %7s\n",
		"stage", "count", "mean", "p50", "p95", "p99", "share")
	for _, s := range stages {
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.Total) / float64(total)
		}
		fmt.Fprintf(&b, "%-18s %8d %10v %10v %10v %10v %6.1f%%\n",
			s.Name, s.Count,
			s.Mean.Round(time.Microsecond),
			s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond),
			s.P99.Round(time.Microsecond),
			share)
	}
	return b.String()
}
