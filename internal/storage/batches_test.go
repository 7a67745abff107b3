package storage

import (
	"context"
	"errors"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

func TestReceiveBatchesCoalesced(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	var flight []core.BatchView
	for i := 0; i < 5; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, core.PageID(i), 0, []byte{byte(i)})
		bs := frame(t, f, m)
		flight = append(flight, bs[0])
	}
	ack, err := receiveBatches(n, context.Background(), flight, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ack.SCL != 5 {
		t.Fatalf("SCL %d, want 5", ack.SCL)
	}
	// One coalesced flight = one durable hot-log append, counted as one write
	// and one sync, for five batches.
	ds := n.Disk().Stats()
	if ds.Writes != 1 || ds.Syncs != 1 {
		t.Fatalf("disk %+v, want exactly one write+sync for the flight", ds)
	}
	if s := n.Stats(); s.BatchesReceived != 5 || s.RecordsReceived != 5 {
		t.Fatalf("stats %+v", s)
	}
}

// TestIngestIsOneDeviceWait: a flight is persisted by one durable append,
// so the node sleeps once on its disk, for the write, the flush and the
// flight's bytes together — not once for the write and again for a sync.
func TestIngestIsOneDeviceWait(t *testing.T) {
	cfg := disk.NVMe()
	n := NewNode(Config{Seg: core.SegmentID{PG: 0}, Node: "nvme", Net: netsim.New(netsim.FastLocal()), Disk: cfg})
	var slept []time.Duration
	n.Disk().SetSleeper(func(d time.Duration) { slept = append(slept, d) })
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	var flight []core.BatchView
	size := 0
	for i := 0; i < 3; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, core.PageID(i), 0, []byte("durable"))
		v := frame(t, f, m)[0]
		flight = append(flight, v)
		size += v.Len()
	}
	if _, err := receiveBatches(n, context.Background(), flight, 0, 0); err != nil {
		t.Fatal(err)
	}
	want := cfg.WriteLatency + cfg.SyncLatency + time.Duration(int64(size)*int64(time.Second)/cfg.Bandwidth)
	if len(slept) != 1 || slept[0] != want {
		t.Fatalf("one Ingest of %d batches slept %v, want one wait of %v", len(flight), slept, want)
	}
	if ds := n.Disk().Stats(); ds.Writes != 1 || ds.Syncs != 1 || ds.BytesWritten != uint64(size) {
		t.Fatalf("disk %+v, want one write and one sync of %d bytes", ds, size)
	}
}

func TestReceiveBatchesDownAndWiped(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	b := craft(t, core.Record{
		LSN: 1, Type: core.RecPageDelta, PG: 0, Page: 1, Data: []byte("x"),
	})
	n.Crash()
	if _, err := receiveBatch(n, context.Background(), b, 0, 0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("crashed: %v", err)
	}
	n.Restart()
	n.Wipe()
	if _, err := receiveBatch(n, context.Background(), b, 0, 0); !errors.Is(err, ErrWipedSegment) {
		t.Fatalf("wiped: %v", err)
	}
}

func TestReceiveBatchesFailedDisk(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	n.Disk().Fail(true)
	b := craft(t, core.Record{
		LSN: 1, Type: core.RecPageDelta, PG: 0, Page: 1, Data: []byte("x"),
	})
	if _, err := receiveBatch(n, context.Background(), b, 0, 0); err == nil {
		t.Fatal("write to failed disk succeeded")
	}
}

func TestGCTailAndIngestBelowTail(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 6; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 1, uint32(i), []byte{byte(i)})
		bs := frame(t, f, m)
		if _, err := receiveBatch(n, context.Background(), bs[0], 6, 6); err != nil {
			t.Fatal(err)
		}
	}
	n.CoalesceOnce()
	if n.GCTail() != 6 {
		t.Fatalf("gc tail %d, want 6", n.GCTail())
	}
	// A duplicate of a GCed record must be ignored, not resurrected.
	dup := craft(t, core.Record{
		LSN: 3, PrevLSN: 2, Type: core.RecPageDelta, PG: 0, Page: 1, Data: []byte("z"),
	})
	if _, err := receiveBatch(n, context.Background(), dup, 6, 6); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.RecordsHeld != 0 {
		t.Fatalf("GCed record resurrected: held %d", s.RecordsHeld)
	}
	// Reads at the GC floor still serve from the materialized base.
	p, err := n.ReadPage(context.Background(), 1, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:6]); got != "\x00\x01\x02\x03\x04\x05" {
		t.Fatalf("payload % x", p.Payload()[:6])
	}
}

// TestReceiveBatchesRedeliveryIdempotent re-sends a whole flight, as the
// write path's retry does when an ack is lost after the node already
// persisted the batches: the duplicate must ack the same SCL and change
// nothing durable.
func TestReceiveBatchesRedeliveryIdempotent(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	var flight []core.BatchView
	for i := 0; i < 5; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, core.PageID(i), 0, []byte{byte(i)})
		bs := frame(t, f, m)
		flight = append(flight, bs[0])
	}
	ack1, err := receiveBatches(n, context.Background(), flight, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := n.Stats().RecordsHeld
	ack2, err := receiveBatches(n, context.Background(), flight, 0, 0)
	if err != nil {
		t.Fatalf("redelivery rejected: %v", err)
	}
	if ack2.SCL != ack1.SCL {
		t.Fatalf("redelivery ack SCL %d, want %d", ack2.SCL, ack1.SCL)
	}
	if got := n.Stats().RecordsHeld; got != held {
		t.Fatalf("redelivery changed records held: %d, want %d", got, held)
	}
	if n.HasGaps() {
		t.Fatal("redelivery introduced gaps")
	}
}

// TestIngestLaterFlightFirst is the node's half of the ordering contract the
// writer's windowed senders rely on (volume.replicaSender): flights to one
// replica overlap, so the batch holding LSNs {3,4} may be ingested before the
// one holding {1,2}. The node keeps it, but nothing may treat the segment as
// complete past the hole: the ack reports the SCL below 3, a read that requires
// 4 is refused, and a coalesce round folds and collects nothing even though
// the PGMRPL it was told is already 4. When {1,2} lands the hole closes.
func TestIngestLaterFlightFirst(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	ctx := context.Background()
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	var flights [2]core.BatchView
	for i := range flights {
		m := &core.MTR{Txn: uint64(i + 1)}
		m.AddDelta(0, 7, uint32(2*i), []byte{byte('a' + i)})
		m.AddDelta(0, 7, uint32(2*i+1), []byte{byte('A' + i)})
		flights[i] = frame(t, f, m)[0]
	}
	if first, last := flights[1].First(), flights[1].Last(); first != 3 || last != 4 {
		t.Fatalf("second batch holds %d..%d, want 3..4", first, last)
	}

	// The other replicas made {1,2} durable, so the points the later flight
	// carries are already past it.
	ack, err := receiveBatch(n, ctx, flights[1], 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ack.SCL >= 3 {
		t.Fatalf("ack of the later flight reports SCL %d with 1..2 missing", ack.SCL)
	}
	if !n.HasGaps() {
		t.Fatal("no gap recorded below the later flight")
	}
	if _, err := n.ReadPage(ctx, 7, 4, 4); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("read requiring LSN 4 over the hole: %v, want ErrIncomplete", err)
	}
	if folded := n.CoalesceOnce(); folded != 0 {
		t.Fatalf("coalesce folded %d pages past the hole", folded)
	}
	if s := n.Stats(); s.PagesCoalesced != 0 || s.RecordsGCed != 0 || s.RecordsHeld != 2 {
		t.Fatalf("after a coalesce round over the hole: %+v", s)
	}

	ack, err = receiveBatch(n, ctx, flights[0], 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ack.SCL != 4 || n.HasGaps() {
		t.Fatalf("after the earlier flight landed: SCL %d, gaps %v", ack.SCL, n.HasGaps())
	}
	p, err := n.ReadPage(ctx, 7, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "aAbB" {
		t.Fatalf("page reads %q, want both flights applied in LSN order", got)
	}
	if folded := n.CoalesceOnce(); folded != 1 {
		t.Fatalf("coalesce folded %d pages once the segment was complete, want 1", folded)
	}
}
