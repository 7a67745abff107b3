package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
)

// testPG builds a 6-replica protection group on a fast network.
func testPG(t testing.TB, store *objstore.Store) (*netsim.Network, []*Node) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	nodes := make([]*Node, 6)
	for i := range nodes {
		nodes[i] = NewNode(Config{
			Seg:   core.SegmentID{PG: 0, Replica: uint8(i)},
			Node:  netsim.NodeID(string(rune('a' + i))),
			AZ:    netsim.AZ(i / 2),
			Net:   net,
			Disk:  disk.FastLocal(),
			Store: store,
		})
	}
	for _, n := range nodes {
		n.SetPeers(nodes)
	}
	return net, nodes
}

// writeMTRs frames count single-delta MTRs for pg 0 page `pg0Page` and
// delivers them to the given subset of nodes, returning the framer.
func writeMTRs(t *testing.T, nodes []*Node, count int, to func(i int) []*Node) *core.Framer {
	t.Helper()
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < count; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, core.PageID(i%3), uint32(4*i%128), []byte{byte(i), byte(i + 1)})
		batches := frame(t, f, m)
		for _, n := range to(i) {
			for bi := range batches {
				if _, err := receiveBatch(n, context.Background(), batches[bi], core.ZeroLSN, core.ZeroLSN); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return f
}

func all(nodes []*Node) func(int) []*Node { return func(int) []*Node { return nodes } }

func TestReceiveBatchAdvancesSCL(t *testing.T) {
	_, nodes := testPG(t, nil)
	writeMTRs(t, nodes, 10, all(nodes))
	for _, n := range nodes {
		if n.SCL() != 10 {
			t.Fatalf("%s SCL %d, want 10", n.NodeID(), n.SCL())
		}
		if n.HasGaps() {
			t.Fatalf("%s has gaps", n.NodeID())
		}
	}
	s := nodes[0].Stats()
	if s.BatchesReceived != 10 || s.RecordsReceived != 10 || s.RecordsHeld != 10 {
		t.Fatalf("stats %+v", s)
	}
	// Each receive was one durable hot-log append: one write, one sync.
	ds := nodes[0].Disk().Stats()
	if ds.Writes != 10 || ds.Syncs != 10 {
		t.Fatalf("disk %+v", ds)
	}
}

func TestReceiveBatchDuplicatesIgnored(t *testing.T) {
	_, nodes := testPG(t, nil)
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	m := &core.MTR{Txn: 1}
	m.AddDelta(0, 1, 0, []byte("x"))
	batches := frame(t, f, m)
	for i := 0; i < 3; i++ {
		if _, err := receiveBatch(nodes[0], context.Background(), batches[0], 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := nodes[0].Stats(); s.RecordsHeld != 1 {
		t.Fatalf("held %d, want 1", s.RecordsHeld)
	}
}

func TestCrashedNodeRejects(t *testing.T) {
	_, nodes := testPG(t, nil)
	nodes[0].Crash()
	if !nodes[0].Down() {
		t.Fatal("Down not reported")
	}
	b := craft(t, core.Record{LSN: 1, Type: core.RecPageDelta, PG: 0, Page: 1, Data: []byte("x")})
	if _, err := receiveBatch(nodes[0], context.Background(), b, 0, 0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("receive on crashed node: %v", err)
	}
	if _, err := nodes[0].ReadPage(context.Background(), 1, 0, 0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("read on crashed node: %v", err)
	}
	nodes[0].Restart()
	if _, err := receiveBatch(nodes[0], context.Background(), b, 0, 0); err != nil {
		t.Fatalf("receive after restart: %v", err)
	}
}

func TestGossipFillsHoles(t *testing.T) {
	_, nodes := testPG(t, nil)
	// Deliver every MTR to 4 nodes only (a legal 4/6 quorum write);
	// replicas 4 and 5 miss everything.
	writeMTRs(t, nodes, 20, func(int) []*Node { return nodes[:4] })
	if nodes[5].SCL() != 0 {
		t.Fatal("replica 5 should have nothing yet")
	}
	got := nodes[5].GossipOnce()
	if got == 0 {
		t.Fatal("gossip pulled nothing")
	}
	if nodes[5].SCL() != 20 {
		t.Fatalf("replica 5 SCL %d after gossip, want 20", nodes[5].SCL())
	}
	if s := nodes[0].Stats(); s.RecordsGossiped == 0 {
		t.Fatal("provider did not count gossiped records")
	}
}

func TestGossipFillsInteriorGap(t *testing.T) {
	_, nodes := testPG(t, nil)
	// Node 0 gets MTRs except #5; others get all.
	writeMTRs(t, nodes, 10, func(i int) []*Node {
		if i == 5 {
			return nodes[1:]
		}
		return nodes
	})
	if nodes[0].SCL() != 5 || !nodes[0].HasGaps() {
		t.Fatalf("setup: SCL %d gaps %v", nodes[0].SCL(), nodes[0].HasGaps())
	}
	nodes[0].GossipOnce()
	if nodes[0].SCL() != 10 {
		t.Fatalf("SCL %d after gossip, want 10", nodes[0].SCL())
	}
}

func TestSyncGroupConverges(t *testing.T) {
	_, nodes := testPG(t, nil)
	// Scatter MTRs: MTR i lands only on nodes[i%6] — no quorum anywhere,
	// but the union is complete.
	writeMTRs(t, nodes, 30, func(i int) []*Node { return nodes[i%6 : i%6+1] })
	SyncGroup(nodes)
	for _, n := range nodes {
		if n.SCL() != 30 {
			t.Fatalf("%s SCL %d after sync, want 30", n.NodeID(), n.SCL())
		}
	}
}

func TestGossipSkipsDownPeers(t *testing.T) {
	_, nodes := testPG(t, nil)
	writeMTRs(t, nodes, 5, func(int) []*Node { return nodes[:1] })
	for _, n := range nodes[1:] {
		n.Crash()
	}
	// Gossip from node 1 (crashed) does nothing; node 0 pulling from
	// crashed peers also gets nothing and must not hang.
	if got := nodes[1].GossipOnce(); got != 0 {
		t.Fatal("crashed node gossiped")
	}
	nodes[1].Restart()
	if got := nodes[1].GossipOnce(); got != 5 {
		t.Fatalf("restarted node pulled %d, want 5", got)
	}
}

func TestReadPageMaterializesAtReadPoint(t *testing.T) {
	_, nodes := testPG(t, nil)
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i, s := range []string{"aa", "bb", "cc"} {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 7, 0, []byte(s))
		batches := frame(t, f, m)
		for _, n := range nodes {
			if _, err := receiveBatch(n, context.Background(), batches[0], 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := nodes[2].ReadPage(context.Background(), 7, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:2]); got != "bb" {
		t.Fatalf("read point 2 payload %q, want bb", got)
	}
	p, err = nodes[2].ReadPage(context.Background(), 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:2]); got != "cc" {
		t.Fatalf("read point 3 payload %q, want cc", got)
	}
	if _, err := nodes[2].ReadPage(context.Background(), 7, 9, 9); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("read beyond SCL: %v", err)
	}
	if _, err := nodes[2].ReadPage(context.Background(), 999, 1, 0); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("unknown page: %v", err)
	}
}

func TestTruncateAnnulsTail(t *testing.T) {
	_, nodes := testPG(t, nil)
	writeMTRs(t, nodes, 10, all(nodes))
	n := nodes[0]
	if err := n.Truncate(core.TruncationRange{Epoch: 1, From: 6, To: 100}); err != nil {
		t.Fatal(err)
	}
	if n.SCL() != 6 {
		t.Fatalf("SCL %d after truncate, want 6", n.SCL())
	}
	if s := n.Stats(); s.RecordsHeld != 6 {
		t.Fatalf("held %d, want 6", s.RecordsHeld)
	}
	// Stale epoch rejected.
	if err := n.Truncate(core.TruncationRange{Epoch: 0, From: 2, To: 100}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch: %v", err)
	}
	if tr := n.RecoveryView().Trunc; tr != (core.TruncationRange{Epoch: 1, From: 6, To: 100}) {
		t.Fatalf("truncation %+v after a stale truncate, want epoch 1 (6, 100]", tr)
	}
	// Records arriving after the truncation that fall inside it are dropped.
	manual := craft(t, core.Record{
		LSN: 8, PrevLSN: 6, Type: core.RecPageDelta, PG: 0, Page: 1, Data: []byte("np"),
	})
	if _, err := receiveBatch(n, context.Background(), manual, 0, 0); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s.RecordsHeld != 6 {
		t.Fatalf("annulled record was ingested: held %d", s.RecordsHeld)
	}
}

// TestRecoveryViewCPLs: a node's view lists what it holds and which of those
// close an MTR.
func TestRecoveryViewCPLs(t *testing.T) {
	_, nodes := testPG(t, nil)
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	// MTR of 3 records: CPL at 3. MTR of 2 records: CPL at 5.
	m1 := &core.MTR{Txn: 1}
	m1.AddDelta(0, 1, 0, []byte("a"))
	m1.AddDelta(0, 2, 0, []byte("b"))
	m1.AddDelta(0, 3, 0, []byte("c"))
	b1 := frame(t, f, m1)
	m2 := &core.MTR{Txn: 2}
	m2.AddDelta(0, 1, 4, []byte("d"))
	m2.AddDelta(0, 2, 4, []byte("e"))
	b2 := frame(t, f, m2)
	n := nodes[0]
	for _, b := range append(b1, b2...) {
		if _, err := receiveBatch(n, context.Background(), b, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := RecoveryView{Held: []core.LSN{1, 2, 3, 4, 5}, CPLs: []core.LSN{3, 5}}
	if got := n.RecoveryView(); !sameView(got, want) {
		t.Fatalf("recovery view %+v, want %+v", got, want)
	}
}

// sameView reports whether two recovery views say the same.
func sameView(a, b RecoveryView) bool {
	return a.Floor == b.Floor && a.FloorCPL == b.FloorCPL && a.Trunc == b.Trunc &&
		slices.Equal(a.Held, b.Held) && slices.Equal(a.CPLs, b.CPLs)
}

// topCPL is the highest CPL a recovery view names.
func topCPL(v RecoveryView) core.LSN {
	if k := len(v.CPLs); k > 0 {
		return v.CPLs[k-1]
	}
	return v.FloorCPL
}

func TestCoalesceAdvancesBaseAndGCs(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 8; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 1, uint32(i), []byte{byte('a' + i)})
		batches := frame(t, f, m)
		// Piggyback VDL=8, PGMRPL=5 on the last batch.
		vdl, mrpl := core.ZeroLSN, core.ZeroLSN
		if i == 7 {
			vdl, mrpl = 8, 5
		}
		if _, err := receiveBatch(n, context.Background(), batches[0], vdl, mrpl); err != nil {
			t.Fatal(err)
		}
	}
	if adv := n.CoalesceOnce(); adv != 1 {
		t.Fatalf("coalesced %d pages, want 1", adv)
	}
	if got := n.BasePageLSN(1); got != 5 {
		t.Fatalf("base LSN %d, want 5 (PGMRPL)", got)
	}
	if got := n.ChainLength(1); got != 3 {
		t.Fatalf("chain length %d, want 3", got)
	}
	if s := n.Stats(); s.RecordsGCed != 5 || s.RecordsHeld != 3 {
		t.Fatalf("gc stats %+v", s)
	}
	// Reads at/above the PGMRPL still work and see the right data.
	p, err := n.ReadPage(context.Background(), 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:8]); got != "abcdefgh" {
		t.Fatalf("payload %q", got)
	}
	p, err = n.ReadPage(context.Background(), 1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:8]); got != "abcde\x00\x00\x00" {
		t.Fatalf("payload at read point 5: %q", got)
	}
	// Recovery's walk starts at or above the GC tail: the highest CPL GC
	// dropped answers for every one below it, and the rest are held.
	want := RecoveryView{Floor: 5, FloorCPL: 5, Held: []core.LSN{6, 7, 8}, CPLs: []core.LSN{6, 7, 8}}
	if got := n.RecoveryView(); !sameView(got, want) {
		t.Fatalf("recovery view after GC to 5: %+v, want %+v", got, want)
	}
}

func TestCoalesceIdempotentWhenNothingToDo(t *testing.T) {
	_, nodes := testPG(t, nil)
	if adv := nodes[0].CoalesceOnce(); adv != 0 {
		t.Fatal("coalesced on empty node")
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	store := objstore.New()
	_, nodes := testPG(t, store)
	writeMTRs(t, nodes, 12, all(nodes))
	n := nodes[0]
	if v := n.BackupNow(); v != 1 {
		t.Fatalf("backup version %d", v)
	}
	before, err := n.ReadPage(context.Background(), 1, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Wipe()
	if _, err := n.ReadPage(context.Background(), 1, 12, 0); !errors.Is(err, ErrWipedSegment) {
		t.Fatalf("read on wiped segment: %v", err)
	}
	if err := n.LoadBackup(time.Now()); err != nil {
		t.Fatal(err)
	}
	if n.SCL() != 12 {
		t.Fatalf("SCL after restore %d, want 12", n.SCL())
	}
	after, err := n.ReadPage(context.Background(), 1, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(before.Payload()) != string(after.Payload()) {
		t.Fatal("restored page differs")
	}
}

func TestSnapshotAfterCoalesce(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 6; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 2, uint32(i), []byte{byte('A' + i)})
		batches := frame(t, f, m)
		if _, err := receiveBatch(n, context.Background(), batches[0], 6, 4); err != nil {
			t.Fatal(err)
		}
	}
	n.CoalesceOnce() // base to 4, chain 5..6
	snap := n.Snapshot()
	n2 := NewNode(Config{Seg: n.Seg(), Node: "fresh", AZ: 0, Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
	if err := n2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if n2.SCL() != 6 {
		t.Fatalf("restored SCL %d, want 6", n2.SCL())
	}
	p, err := n2.ReadPage(context.Background(), 2, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:6]); got != "ABCDEF" {
		t.Fatalf("payload %q", got)
	}
}

// TestSnapshotIsOneExactAllocation: the snapshot buffer is sized before it is
// written — len == cap — and what it carries restores a node with bases,
// chains, metadata-only records and CPLs to the same answers.
func TestSnapshotIsOneExactAllocation(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	ctx := context.Background()
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	var tail core.LSN
	for i := 0; i < 12; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddMeta(core.RecTxnBegin, 0)
		m.AddDelta(0, core.PageID(1+i%3), uint32(8*i), []byte{byte('a' + i), byte(i)})
		m.AddMeta(core.RecTxnCommit, 0) // closes the MTR: a CPL on a metadata record
		b := frame(t, f, m)[0]
		tail = b.Last()
		if _, err := receiveBatch(n, ctx, b, tail, tail/2); err != nil {
			t.Fatal(err)
		}
	}
	if adv := n.CoalesceOnce(); adv != 3 {
		t.Fatalf("coalesced %d pages, want 3", adv)
	}
	if n.ChainLength(1) == 0 || n.BasePageLSN(1) == 0 {
		t.Fatalf("setup: page 1 has base LSN %d and a chain of %d, want both", n.BasePageLSN(1), n.ChainLength(1))
	}
	snap := n.Snapshot()
	if len(snap) != cap(snap) {
		t.Fatalf("snapshot of %d bytes sits in a buffer of %d: the size was not computed exactly", len(snap), cap(snap))
	}
	n2 := NewNode(Config{Seg: n.Seg(), Node: "fresh", AZ: 0, Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
	if err := n2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(n2.Snapshot(), snap) {
		t.Fatal("a restored node snapshots differently from the node it was restored from")
	}
	if n2.SCL() != n.SCL() || n2.GCTail() != n.GCTail() || n2.HasGaps() || n2.Stats().RecordsHeld != n.Stats().RecordsHeld {
		t.Fatalf("restored SCL %d, GC tail %d, %d records; want %d, %d, %d", n2.SCL(), n2.GCTail(), n2.Stats().RecordsHeld, n.SCL(), n.GCTail(), n.Stats().RecordsHeld)
	}
	if got, want := n2.RecoveryView(), n.RecoveryView(); !sameView(got, want) || want.FloorCPL == 0 || len(want.CPLs) == 0 {
		t.Fatalf("restored recovery view %+v, original %+v", got, want)
	}
	for id := core.PageID(1); id <= 3; id++ {
		for _, rp := range []core.LSN{n.GCTail(), tail} {
			got, err := n2.ReadPage(ctx, id, rp, rp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := n.ReadPage(ctx, id, rp, rp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d at %d differs after the round trip", id, rp)
			}
		}
	}
	checkDirtyList(t, n2, "after LoadSnapshot")
}

// snapshotLogRegion returns where a snapshot's log region sits: the offset of
// its length prefix and the length of the bodies (the CRC follows the prefix,
// the bodies follow the CRC).
func snapshotLogRegion(t *testing.T, snap []byte) (at, n int) {
	t.Helper()
	off := 8
	for i := binary.LittleEndian.Uint32(snap[4:]); i > 0; i-- {
		off += 8
		if snap[off] == 1 {
			off += page.Size
		}
		off++
	}
	return off, int(binary.LittleEndian.Uint32(snap[off:]))
}

// TestLoadSnapshotVerifiesLogRegion: the retained log travels as record bodies
// under one CRC-32C, as a batch's do, so a flipped bit anywhere in the region,
// its checksum or its length prefix refuses the whole snapshot — and a region
// whose checksum holds but whose LSNs do not ascend is refused as well.
func TestLoadSnapshotVerifiesLogRegion(t *testing.T) {
	_, nodes := testPG(t, nil)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 6; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, core.PageID(1+i%2), uint32(i), []byte{byte('A' + i)})
		m.AddMeta(core.RecTxnCommit, 0)
		b := frame(t, f, m)[0]
		if _, err := receiveBatch(n, context.Background(), b, b.Last(), 4); err != nil {
			t.Fatal(err)
		}
	}
	n.CoalesceOnce() // bases at 4, records 5..12 retained
	snap := n.Snapshot()
	at, size := snapshotLogRegion(t, snap)
	if size == 0 || n.Stats().RecordsHeld == 0 {
		t.Fatalf("setup: %d records in a log region of %d bytes", n.Stats().RecordsHeld, size)
	}
	fresh := func() *Node {
		return NewNode(Config{Seg: n.Seg(), Node: "fresh", AZ: 0, Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
	}
	n2 := fresh()
	for i := at; i < at+8+size; i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), snap...)
			bad[i] ^= 1 << bit
			if err := n2.LoadSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("bit %d of byte %d (log region at %d+8, %d bytes) flipped: LoadSnapshot returned %v", bit, i, at, size, err)
			}
		}
	}
	if n2.Stats().RecordsHeld != 0 || n2.SCL() != 0 {
		t.Fatal("a refused snapshot left state behind")
	}

	// Swap the first two bodies (same length: same shape of record) and
	// restamp the checksum: intact bytes, descending LSNs.
	swapped := append([]byte(nil), snap...)
	region := swapped[at+8 : at+8+size]
	l := int(binary.LittleEndian.Uint32(region))
	first := append([]byte(nil), region[:l]...)
	l2 := int(binary.LittleEndian.Uint32(region[l:]))
	copy(region, region[l:l+l2])
	copy(region[l2:], first)
	binary.LittleEndian.PutUint32(swapped[at+4:], crc32.Checksum(region, castagnoli))
	if err := fresh().LoadSnapshot(swapped); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "not above its predecessor") {
		t.Fatalf("descending LSNs under a valid checksum: %v", err)
	}
	if err := fresh().LoadSnapshot(snap); err != nil {
		t.Fatalf("the untouched snapshot: %v", err)
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	_, nodes := testPG(t, nil)
	if err := nodes[0].LoadSnapshot([]byte("not a snapshot")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage accepted: %v", err)
	}
	if err := nodes[0].LoadSnapshot(nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("nil accepted: %v", err)
	}
}

func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	_, nodes := testPG(t, nil)
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 4; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 3, uint32(i), []byte{byte('a' + i)})
		batches := frame(t, f, m)
		for _, n := range nodes {
			if _, err := receiveBatch(n, context.Background(), batches[0], 4, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		n.CoalesceOnce()
	}
	n := nodes[0]
	if !n.CorruptPage(3) {
		t.Fatal("no base image to corrupt")
	}
	if bad := n.ScrubOnce(); bad != 1 {
		t.Fatalf("scrub found %d corrupt pages, want 1", bad)
	}
	if s := n.Stats(); s.ScrubsRepaired != 1 {
		t.Fatalf("repairs %d", s.ScrubsRepaired)
	}
	p, err := n.ReadPage(context.Background(), 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "abcd" {
		t.Fatalf("repaired payload %q", got)
	}
	// A second scrub is clean.
	if bad := n.ScrubOnce(); bad != 0 {
		t.Fatal("scrub still dirty after repair")
	}
}

func TestRepairFromPeerAfterWipe(t *testing.T) {
	net, nodes := testPG(t, nil)
	writeMTRs(t, nodes, 15, all(nodes))
	n := nodes[0]
	n.Wipe()
	net.ResetStats()
	if err := n.RepairFrom(nodes[1]); err != nil {
		t.Fatal(err)
	}
	if n.SCL() != 15 {
		t.Fatalf("SCL after repair %d, want 15", n.SCL())
	}
	if net.Stats().Bytes == 0 {
		t.Fatal("repair crossed no network")
	}
	// Repair from a crashed peer fails.
	n.Wipe()
	nodes[1].Crash()
	if err := n.RepairFrom(nodes[1]); err == nil {
		t.Fatal("repair from crashed peer succeeded")
	}
}

func TestBackgroundLoopsSmoke(t *testing.T) {
	store := objstore.New()
	_, nodes := testPG(t, store)
	for _, n := range nodes {
		n.Start()
		n.Start() // idempotent
	}
	writeMTRs(t, nodes, 10, func(int) []*Node { return nodes[:4] })
	deadline := time.Now().Add(2 * time.Second)
	for nodes[5].SCL() != 10 {
		if time.Now().After(deadline) {
			t.Fatal("background gossip did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		n.Stop()
		n.Stop() // idempotent
	}
}

func TestReadCostsDiskIO(t *testing.T) {
	_, nodes := testPG(t, nil)
	writeMTRs(t, nodes, 3, all(nodes))
	n := nodes[0]
	n.Disk().ResetStats()
	if _, err := n.ReadPage(context.Background(), 1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if n.Disk().Stats().Reads != 1 {
		t.Fatal("page read did not cost a disk read")
	}
	if n.Stats().Reads != 1 {
		t.Fatal("read not counted")
	}
	// A read refused before it reaches the disk costs none.
	if _, err := n.ReadPage(context.Background(), 99, 3, 0); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("unknown page: %v", err)
	}
	if _, err := n.ReadPage(context.Background(), 1, 3, 4); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("read above the SCL: %v", err)
	}
	if n.Disk().Stats().Reads != 1 {
		t.Fatal("a read refused before the disk cost a disk read")
	}
	// A failed disk refuses the read, though the page was made before it.
	n.Disk().Fail(true)
	if p, err := n.ReadPage(context.Background(), 1, 3, 0); !errors.Is(err, disk.ErrFailed) || p != nil {
		t.Fatalf("read on a failed disk: page %v, err %v; want no page and disk.ErrFailed", p != nil, err)
	}
	if n.Stats().Reads != 1 {
		t.Fatal("a read refused by the disk was counted as served")
	}
}
