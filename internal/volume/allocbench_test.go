package volume

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/page"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// BenchmarkCommitSteadyStateAllocs drives the full commit hot path — group
// framing into the arena, wire shipping to all six replicas, quorum ack,
// VDL wait, arena recycle — and reports allocations per record. The group
// shape (128 MTRs x 4 records) matches a loaded commit pipeline, where the
// per-group fixed costs (the GroupWrite, which holds the batches of up to
// four PGs inline, and the blocking Ship's channel and completion) amortize
// across 512 records.
func BenchmarkCommitSteadyStateAllocs(b *testing.B) {
	const mtrs, recsPerMTR = 128, 4
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{Name: "bench", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		b.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	b.Cleanup(c.Close)

	ms := make([]*core.MTR, mtrs)
	payload := make([]byte, 48)
	for i := range ms {
		m := &core.MTR{Txn: uint64(i + 1)}
		for j := 0; j < recsPerMTR; j++ {
			m.AddDelta(0, core.PageID(i*recsPerMTR+j), 0, payload)
		}
		ms[i] = m
	}
	ctx := context.Background()

	commitGroup := func() {
		gw, err := c.FrameMTRs(ctx, ms)
		if err != nil {
			b.Fatal(err)
		}
		if err := gw.Ship(ctx); err != nil {
			b.Fatal(err)
		}
		c.WaitDurable(gw.MaxCPL())
		gw.Release()
	}
	commitGroup() // warm the pools before measuring

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitGroup()
	}
	b.StopTimer()
	b.ReportMetric(float64(mtrs*recsPerMTR), "records/op")
}

// TestCommitSteadyStateAllocs pins the hot path at under one allocation per
// record (i.e. 0 allocs/record once truncated to an integer): the wire
// image, CRC, and ship path must not allocate per record, only the small
// per-group fixed overhead remains. A regression here fails plain
// `go test`, not just a benchmark run.
func TestCommitSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin needs the full benchmark loop")
	}
	res := testing.Benchmark(BenchmarkCommitSteadyStateAllocs)
	const recordsPerOp = 128 * 4
	perRecord := float64(res.AllocsPerOp()) / recordsPerOp
	t.Logf("commit steady state: %d allocs/op over %d records = %.3f allocs/record",
		res.AllocsPerOp(), recordsPerOp, perRecord)
	if perRecord >= 1.0 {
		t.Fatalf("commit hot path allocates %.2f times per record, want < 1 (0 per record after amortization)", perRecord)
	}
}

// missVolume is a zero-delay fleet of pages coalesced pages, for the read
// path's pins: a miss in service reads a coalesced page.
func missVolume(tb testing.TB, pages int) *Client {
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{Name: "bench", Geometry: core.UniformGeometry(4), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		tb.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	tb.Cleanup(c.Close)
	ctx := context.Background()
	image := make([]byte, 4000)
	for i := range image {
		image[i] = byte(i)
	}
	for id := core.PageID(0); id < core.PageID(pages); id++ {
		m := &core.MTR{Txn: uint64(id + 1)}
		m.AddInit(c.PGOf(id), id, image)
		if _, err := c.WriteMTR(ctx, m); err != nil {
			tb.Fatal(err)
		}
	}
	for pg := 0; pg < f.PGs(); pg++ {
		for _, n := range f.Replicas(core.PGID(pg)) {
			n.CoalesceOnce()
		}
	}
	if f.Node(c.PGOf(0), 0).BasePageLSN(0) == core.ZeroLSN {
		tb.Fatal("setup: page 0 was not coalesced into a base")
	}
	return c
}

// BenchmarkReadPageMiss is the volume half of a buffer-cache miss:
// Client.ReadPageInto a recycled frame on a zero-delay fleet, over more pages
// than fit in the CPU's cache so that a node's base is cold as it is in
// service. Everything between the engine and the page comes with it —
// routing, candidate order, the hedged read, two network hops, the node's
// verify-on-copy read — so -benchmem shows what a miss allocates: nothing.
func BenchmarkReadPageMiss(b *testing.B) {
	const pages = 2048
	c := missVolume(b, pages)
	ctx := context.Background()
	frame := page.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadPageInto(ctx, core.PageID(i*61%pages), frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadPageMissZeroAllocs pins BenchmarkReadPageMiss's count: a page read
// into a supplied frame, answered by the first replica, allocates nothing —
// not the hedged read's state, its timer or context, the candidate list, the
// attempt, the read-point registration, nor the page.
func TestReadPageMissZeroAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own; the pin runs in normal builds")
	}
	const pages = 64
	c := missVolume(t, pages)
	ctx := context.Background()
	frame := page.New(0)
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		i++
		id := core.PageID(i * 61 % pages)
		if _, err := c.ReadPageInto(ctx, id, frame); err != nil {
			t.Fatal(err)
		}
		if frame.ID() != id {
			t.Fatalf("read page %d into the frame, got %d", id, frame.ID())
		}
	})
	if avg != 0 {
		t.Fatalf("a page read into a supplied frame allocates %.2f objects, want 0", avg)
	}
}

// TestShipIsTheCallersGoroutine pins the write path's shape the way
// TestHedgedFirstAnswerIsOneCallChain pins the read path's: shipping a group
// of three batches starts no goroutine of its own — the quorum bookkeeping, and
// the group's completion, run on the sender workers that deliver the acks —
// and the writer's own objects for a group are a fixed handful, none of them
// per replica. The one thing a ship may start is a worker of a sender's window,
// when a fifth or sixth delivery of the previous group is still out as the
// next group arrives: those are counted (Stats.SenderWorkers), stay for the
// client's life and number at most SenderWindow per sender, so the process
// never holds more than base + senders x (SenderWindow-1) goroutines and every
// goroutine beyond the workers was there before the first group.
func TestShipIsTheCallersGoroutine(t *testing.T) {
	_, c := testVolume(t, 3)
	ctx := context.Background()
	m := &core.MTR{Txn: 1}
	for pg := core.PGID(0); pg < 3; pg++ {
		m.AddDelta(pg, core.PageID(pg), 0, []byte("x"))
	}
	ms := []*core.MTR{m}
	ship := func() {
		g, err := c.FrameMTRs(ctx, ms)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.batches) != 3 {
			t.Fatalf("%d batches, want 3", len(g.batches))
		}
		if err := g.Ship(ctx); err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	const senders = 18
	// A worker is counted before it is started, so reading the goroutines
	// first can only err towards passing a count that was in fact exact.
	besidesWorkers := func() (others, workers int) {
		n := runtime.NumGoroutine()
		workers = c.Stats().SenderWorkers
		return n - workers, workers
	}
	base, workers := besidesWorkers()
	if workers != senders {
		t.Fatalf("%d sender workers before the first group, want one per sender (%d)", workers, senders)
	}
	for i := 0; i < 1000; i++ {
		ship()
		others, workers := besidesWorkers()
		if others > base {
			t.Fatalf("group %d: %d goroutines besides the sender workers, %d before the first group", i, others, base)
		}
		if workers > senders*SenderWindow {
			t.Fatalf("group %d: %d sender workers, bound is %d x %d", i, workers, senders, SenderWindow)
		}
	}
	if vdl := c.VDL(); vdl != 3000 {
		t.Fatalf("VDL %d after 1000 three-record groups", vdl)
	}
	// The writer's objects for a group: the GroupWrite (its batches, with
	// their tails and quorum trackers, inline), and the channel and
	// completion of the blocking Ship (the commit pipeline, which does not
	// block, has only the completion). The 18 deliveries add nothing a group
	// can see: each storage node copies the records into its record arena,
	// whose chunk refills come to a fraction of an object per group. Every
	// run waits for the fifth and sixth deliveries too, so that groups do not
	// overlap and the count is exact: one more object for that wait's
	// channel. The slack is for the race detector, under which one or two
	// more appear; a single object per batch would add three.
	const writer, drain, slack = 3, 1, 2
	avg := testing.AllocsPerRun(200, func() {
		ship()
		if err := c.drainWrites(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects per three-batch group", avg)
	if avg > writer+drain+slack {
		t.Fatalf("a three-batch group allocates %.0f objects, pinned at %d for the writer and none for storage", avg, writer)
	}
}
