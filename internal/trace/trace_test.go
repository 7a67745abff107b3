package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafeAndFree(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("child of nil span must be nil")
	}
	Annotate(s, "k", "v")
	s.End()
	if s.TraceID() != 0 {
		t.Fatal("nil span trace id")
	}
}

func TestSamplingGate(t *testing.T) {
	c := NewCollector(8)
	if sp := c.Start("commit"); sp != nil {
		t.Fatal("sampling off must yield nil spans")
	}
	c.SetSampleEvery(3)
	var sampled int
	for i := 0; i < 30; i++ {
		if sp := c.Start("commit"); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 10 {
		t.Fatalf("1-in-3 gate sampled %d of 30", sampled)
	}
	st := c.Stats()
	if st.Started != 10 || st.Finished != 10 || st.SampleEvery != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnsampledPathDoesNotAllocate(t *testing.T) {
	c := NewCollector(8)
	// Annotation values of the kinds the data path passes on every send,
	// ingest and read attempt: a named string (netsim.NodeID), an int too
	// large for the runtime's preboxed small integers, a named uint64
	// (core.LSN) and an error. Held in variables so nothing is a constant
	// the compiler could box statically.
	type nodeID string
	type lsn uint64
	node, size, scl, err := nodeID(strings.Repeat("n", 3)), 4096+len(c.ring), lsn(1<<40), error(errFake{})
	if n := testing.AllocsPerRun(1000, func() {
		sp := c.Start("commit")
		ch := sp.Child("stage")
		Annotate(ch, "node", node)
		Annotate(ch, "bytes", size)
		Annotate(ch, "scl", scl)
		Annotate(ch, "err", err)
		ch.End()
		sp.End()
	}); n != 0 {
		t.Fatalf("unsampled path allocates %.1f objects per op", n)
	}
	// Sampling on but losing the lottery must not allocate either.
	c.SetSampleEvery(1 << 40)
	if n := testing.AllocsPerRun(1000, func() {
		sp := c.Start("commit")
		sp.End()
	}); n != 0 {
		t.Fatalf("unlucky path allocates %.1f objects per op", n)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestSpanTreeAndAnnotations(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	root := c.Start("commit")
	Annotate(root, "txn", 42)
	a := root.Child("apply")
	time.Sleep(time.Millisecond)
	a.End()
	s := root.Child("ship")
	f := s.Child("flight")
	Annotate(f, "replica", 3)
	time.Sleep(time.Millisecond)
	f.End()
	s.End()
	root.End()

	traces := c.Traces()
	if len(traces) != 1 {
		t.Fatalf("ring holds %d traces", len(traces))
	}
	snap := traces[0].Snapshot()
	if snap.Attr("txn") != "42" {
		t.Fatalf("root attrs %v", snap.Attrs)
	}
	if snap.Find("flight") == nil || snap.Find("flight").Attr("replica") != "3" {
		t.Fatal("nested span lost")
	}
	if d := snap.Find("apply").Duration(); d < time.Millisecond {
		t.Fatalf("apply duration %v", d)
	}
	if !strings.Contains(traces[0].Render(), "replica=3") {
		t.Fatalf("render missing annotation:\n%s", traces[0].Render())
	}
}

func TestCriticalPathSumsToRootDuration(t *testing.T) {
	// Hand-built tree: sequential stages plus overlapping "replica" spans,
	// one of which ends after the root (a straggler past the quorum).
	mk := func(name string, start, end time.Duration, kids ...*SpanInfo) *SpanInfo {
		return &SpanInfo{Name: name, Start: start, End: end, Children: kids}
	}
	root := mk("commit", 0, 1000,
		mk("latch", 10, 50),
		mk("apply", 50, 200),
		mk("ship", 200, 900,
			mk("flight", 210, 600),
			mk("flight", 220, 880),
			mk("flight", 230, 0), // never ended: must be ignored
		),
		mk("vdl", 900, 990),
	)
	segs := CriticalPath(root)
	if got, want := PathTotal(segs), time.Duration(1000); got != want {
		t.Fatalf("critical path sums to %v, want %v\n%v", got, want, segs)
	}
	byName := map[string]time.Duration{}
	for _, s := range segs {
		byName[s.Name] = s.Dur
	}
	// The path must blame the latest-ending flight (the quorum-gating
	// replica), not the fastest.
	if byName["flight"] < 600 {
		t.Fatalf("flight on path for %v, want >= 600ns\n%v", byName["flight"], segs)
	}
	if byName["commit"] == 0 {
		t.Fatal("root self time (gaps) missing from path")
	}
}

// TestCriticalPathSeesThroughWaits: a wait span ends last by construction, so
// a walk that blames the latest-ending child blames the wait for everything
// it waited for. The tree is a commit recorded on the traced engine test's
// network (TestCommitTraceCoversEveryStage; offsets in µs, two of the batch's
// six flights kept): before waits were transparent its path read quorum.wait
// 2737 µs of 2773 and no network, storage or disk time at all.
func TestCriticalPathSeesThroughWaits(t *testing.T) {
	mk := func(name string, start, end time.Duration, kids ...*SpanInfo) *SpanInfo {
		return &SpanInfo{Name: name, Start: start * time.Microsecond, End: end * time.Microsecond, Children: kids}
	}
	root := mk("commit", 0, 2773,
		mk("commit.apply", 5, 20),
		mk("commit.queue", 20, 22),
		mk("group.frame", 22, 26),
		mk("group.ship", 28, 2768,
			mk("quorum.wait", 28, 2765),
			mk("batch.ship", 29, 2764,
				mk("replica.flight", 42, 2759,
					mk("net.req", 43, 1186),
					mk("storage.ingest", 1186, 1525,
						mk("disk.write", 1187, 1330),
						mk("disk.sync", 1330, 1523),
						mk("storage.apply", 1524, 1525)),
					mk("net.ack", 1525, 2759)),
				mk("replica.flight", 54, 2764, // the ack that completed the quorum
					mk("net.req", 55, 1214),
					mk("storage.ingest", 1215, 1515,
						mk("disk.write", 1216, 1334),
						mk("disk.sync", 1334, 1511),
						mk("storage.apply", 1512, 1514)),
					mk("net.ack", 1515, 2764))),
			mk("vdl.wait", 2765, 2766)),
	)
	segs := CriticalPath(root)
	if got := PathTotal(segs); got != root.Duration() {
		t.Fatalf("critical path sums to %v, want %v\n%v", got, root.Duration(), segs)
	}
	byName := map[string]time.Duration{}
	for _, s := range segs {
		byName[s.Name] = s.Dur / time.Microsecond
	}
	for name, want := range map[string]time.Duration{
		"net.req":        1170, // the gating flight's 1159, the first one's before that
		"net.ack":        1249,
		"disk.write":     118,
		"disk.sync":      177,
		"storage.apply":  2,
		"storage.ingest": 3,  // what its children leave
		"batch.ship":     13, // until the first flight took off
		"quorum.wait":    2,  // before the batch started and after it resolved
		"vdl.wait":       1,
		"group.ship":     2,
	} {
		if byName[name] != want {
			t.Errorf("%s on the path for %dµs, want %d", name, byName[name], want)
		}
	}
	if t.Failed() {
		t.Logf("%v", segs)
	}
}

func TestRingBounded(t *testing.T) {
	c := NewCollector(4)
	c.SetSampleEvery(1)
	for i := 0; i < 20; i++ {
		c.Start("r").End()
	}
	if n := len(c.Traces()); n != 4 {
		t.Fatalf("ring holds %d, want 4", n)
	}
}

func TestStagesAndExemplars(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(1)
	for i := 0; i < 6; i++ {
		root := c.Start("commit")
		ch := root.Child("apply")
		time.Sleep(time.Duration(i+1) * 100 * time.Microsecond)
		ch.End()
		root.End()
	}
	stages := c.Stages()
	var apply *StageStat
	for i := range stages {
		if stages[i].Name == "apply" {
			apply = &stages[i]
		}
	}
	if apply == nil || apply.Count != 6 {
		t.Fatalf("apply stage missing or wrong count: %+v", stages)
	}
	if apply.P50 > apply.P95 || apply.P95 > apply.P99 {
		t.Fatalf("quantiles not monotone: %+v", *apply)
	}
	ex := c.Exemplars("commit")
	if len(ex) == 0 || len(ex) > exemplarsPerRoot {
		t.Fatalf("exemplars %d", len(ex))
	}
	for i := 1; i < len(ex); i++ {
		if ex[i].Duration() > ex[i-1].Duration() {
			t.Fatal("exemplars not sorted slowest-first")
		}
	}
	out := FormatStages(stages)
	if !strings.Contains(out, "apply") || !strings.Contains(out, "share") {
		t.Fatalf("stage table:\n%s", out)
	}
}

func TestLateSpanEndAfterRootFinish(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	root := c.Start("commit")
	straggler := root.Child("flight")
	root.End()
	// The trace is done: new children are refused, but the straggler's end
	// still lands in the stage aggregation.
	if root.Child("x") != nil {
		t.Fatal("child after finish must be nil")
	}
	straggler.End()
	found := false
	for _, s := range c.Stages() {
		if s.Name == "flight" && s.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("late span end not aggregated")
	}
}

func TestConcurrentSpans(t *testing.T) {
	c := NewCollector(64)
	c.SetSampleEvery(1)
	root := c.Start("commit")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("flight")
			Annotate(sp, "replica", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	snap := c.Traces()[0].Snapshot()
	if n := len(snap.Children); n != 16 {
		t.Fatalf("concurrent children %d", n)
	}
}

func TestSpanCap(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	root := c.Start("commit")
	var made int
	for i := 0; i < maxSpansPerTrace+100; i++ {
		if sp := root.Child("s"); sp != nil {
			made++
			sp.End()
		}
	}
	if made != maxSpansPerTrace-1 {
		t.Fatalf("span cap admitted %d children", made)
	}
	root.End()
}

func BenchmarkStartUnsampled(b *testing.B) {
	c := NewCollector(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := c.Start("commit")
		ch := sp.Child("stage")
		ch.End()
		sp.End()
	}
}

func BenchmarkStartSampled(b *testing.B) {
	c := NewCollector(256)
	c.SetSampleEvery(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := c.Start("commit")
		ch := sp.Child("stage")
		ch.End()
		sp.End()
	}
}
