package storage

import (
	"context"
	"errors"
	"testing"

	"aurora/internal/core"
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
	// One coalesced flight = one hot-log write and one sync, five batches.
	ds := n.Disk().Stats()
	if ds.Writes != 1 || ds.Syncs != 1 {
		t.Fatalf("disk %+v, want exactly one write+sync for the flight", ds)
	}
	if s := n.Stats(); s.BatchesReceived != 5 || s.RecordsReceived != 5 {
		t.Fatalf("stats %+v", s)
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
