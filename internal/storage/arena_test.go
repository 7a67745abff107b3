package storage

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// steadyBatches frames count batches for PG 0 through f, each an MTR of two
// deltas of dataLen bytes on pages cycling through pages, ready to ingest in
// order.
func steadyBatches(tb testing.TB, f *core.Framer, count, pages, dataLen int) []core.BatchView {
	tb.Helper()
	data := make([]byte, dataLen)
	views := make([]core.BatchView, count)
	for i := range views {
		m := &core.MTR{Txn: uint64(i + 1)}
		for j := 0; j < 2; j++ {
			data[0] = byte(i + j)
			m.AddDelta(0, core.PageID(1+(2*i+j)%pages), uint32(8*j), data)
		}
		views[i] = frame(tb, f, m)[0]
	}
	return views
}

func newFramer() *core.Framer { return core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil) }

func arenaNode(name string) *Node {
	return NewNode(Config{Seg: core.SegmentID{PG: 0}, Node: netsim.NodeID(name), Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
}

// TestIngestSteadyStateAllocs pins the foreground write path at the node: a
// steady stream of batches, with coalescing collecting behind it as in
// service, allocates only the record arena's chunk refills — one slab chunk
// per arenaSlabChunk records and one body chunk per arenaBodyChunk bytes —
// and nothing per batch.
func TestIngestSteadyStateAllocs(t *testing.T) {
	const batches, pages, dataLen = 4096, 8, 40
	n := arenaNode("steady")
	views := steadyBatches(t, newFramer(), batches+64, pages, dataLen)
	ctx := context.Background()
	results := make([]BatchResult, 0, 1)
	i := 0
	ingest := func() {
		v := views[i]
		i++
		var err error
		if _, results, err = n.Ingest(ctx, []core.BatchView{v}, v.Last(), v.Last(), results[:0]); err != nil || results[0].Err != nil {
			t.Fatalf("batch %d: %v %v", i, err, results)
		}
		if i%64 == 0 {
			n.CoalesceOnce()
		}
	}
	for i < 64 { // first bases, log and chain capacity
		ingest()
	}
	// (testing.AllocsPerRun rounds to whole objects per run: too coarse.)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i < 64+batches {
		ingest()
	}
	runtime.ReadMemStats(&after)
	objects := after.Mallocs - before.Mallocs
	refills := (2*batches+arenaSlabChunk-1)/arenaSlabChunk + (2*batches*dataLen+arenaBodyChunk-1)/arenaBodyChunk
	t.Logf("%d objects over %d batches; the arena's chunk refills are %d", objects, batches, refills)
	if objects > uint64(refills+4) { // slack for the runtime's own
		t.Fatalf("ingest allocates %d objects over %d batches; the chunk refills are %d", objects, batches, refills)
	}
	if s := n.Stats(); s.RecordsReceived != uint64(2*i) {
		t.Fatalf("%d records filed, want %d", s.RecordsReceived, 2*i)
	}
}

// TestFiledRecordsOwnTheirBytes: what a node files is the node's own. A
// record's data survives the sender's buffer being reused, an append to one
// record's data cannot write into the next record in the same chunk, and a
// record a peer hands over by gossip is copied, not shared.
func TestFiledRecordsOwnTheirBytes(t *testing.T) {
	ctx := context.Background()
	f := newFramer()
	m := &core.MTR{Txn: 1}
	m.AddDelta(0, 1, 0, []byte("first record"))
	m.AddDelta(0, 2, 0, []byte("second record"))
	m.AddDelta(0, 3, 0, []byte("third record"))
	want := [][]byte{[]byte("first record"), []byte("second record"), []byte("third record")}
	// The sender's arena, as a buffer this test owns and then recycles.
	wire := bytes.Clone(frame(t, f, m)[0].Bytes())
	v, _, err := core.ParseBatchView(wire)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := testPG(t, nil)
	a, b := nodes[0], nodes[1]
	if _, err := receiveBatch(a, ctx, v, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	check := func(n *Node, what string) {
		t.Helper()
		n.mu.Lock()
		defer n.mu.Unlock()
		if len(n.log) != len(want) {
			t.Fatalf("%s: %d records filed, want %d", what, len(n.log), len(want))
		}
		for i, r := range n.log {
			if !bytes.Equal(r.Data, want[i]) {
				t.Fatalf("%s: record %d holds %q, want %q", what, i, r.Data, want[i])
			}
		}
	}
	check(a, "after the sender's buffer was reused")

	a.mu.Lock()
	first := a.log[0]
	if cap(first.Data) != len(first.Data) {
		a.mu.Unlock()
		t.Fatalf("a filed record's data has capacity %d beyond its %d bytes", cap(first.Data), len(first.Data))
	}
	_ = append(first.Data, "OVERWRITE"...)
	a.mu.Unlock()
	check(a, "after an append to the first record's data")

	if got := b.GossipOnce(); got != len(want) {
		t.Fatalf("gossip filed %d records, want %d", got, len(want))
	}
	check(b, "after gossip")
	// Scribble over the provider's records (never done in service: filed
	// records are immutable) to find any byte the puller shares with it.
	a.mu.Lock()
	for _, r := range a.log {
		for i := range r.Data {
			r.Data[i] = '#'
		}
	}
	a.mu.Unlock()
	check(b, "after the provider's chunk was overwritten")
}

// TestGossipIdleRoundAllocatesNothing: every node runs a gossip round every
// few milliseconds, and on a PG whose replicas are in step a round finds
// nothing to pull — it must cost no objects.
func TestGossipIdleRoundAllocatesNothing(t *testing.T) {
	_, nodes := testPG(t, nil)
	writeMTRs(t, nodes, 8, func(int) []*Node { return nodes })
	round := func() {
		if got := nodes[3].GossipOnce(); got != 0 {
			t.Fatalf("idle round pulled %d records", got)
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("an idle gossip round allocates %.1f objects, want 0", avg)
	}
}

// TestPeersPulledSameAZFirst: gossip asks the peers in its own AZ first, in
// the order they were given, then the others in theirs.
func TestPeersPulledSameAZFirst(t *testing.T) {
	_, nodes := testPG(t, nil)
	for _, n := range nodes {
		var got []netsim.AZ
		for _, p := range n.peers {
			got = append(got, p.AZ())
		}
		var want []netsim.AZ
		want = append(want, n.AZ())
		for _, p := range nodes {
			if p.AZ() != n.AZ() {
				want = append(want, p.AZ())
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s pulls from AZs %v, want %v", n.NodeID(), got, want)
		}
	}
}

// BenchmarkIngest is the node's half of a commit: one two-record batch
// filed per op, coalescing collecting behind it. Run with -benchmem: the
// objects are the arena's chunk refills, a small fraction of one per op.
func BenchmarkIngest(b *testing.B) {
	const lot = 4096
	n := arenaNode("bench")
	f := newFramer()
	views := steadyBatches(b, f, lot, 8, 40)
	ctx := context.Background()
	results := make([]BatchResult, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%lot == 0 { // the next lot, framed off the clock
			b.StopTimer()
			views = steadyBatches(b, f, lot, 8, 40)
			b.StartTimer()
		}
		v := views[i%lot]
		var err error
		if _, results, err = n.Ingest(ctx, []core.BatchView{v}, v.Last(), v.Last(), results[:0]); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			n.CoalesceOnce()
		}
	}
}
