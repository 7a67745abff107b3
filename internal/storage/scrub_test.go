package storage

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"aurora/internal/core"
)

// scrubPG builds a 6-replica PG with coalesced base images on every node:
// 8 deltas to page 1, PGMRPL piggybacked so CoalesceOnce materializes a
// base at LSN 5 with a 3-record chain on top.
func scrubPG(t *testing.T) []*Node {
	t.Helper()
	_, nodes := testPG(t, nil)
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 8; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 1, uint32(i), []byte{byte('a' + i)})
		batches := frame(t, f, m)
		vdl, mrpl := core.ZeroLSN, core.ZeroLSN
		if i == 7 {
			vdl, mrpl = 8, 5
		}
		for _, n := range nodes {
			if _, err := receiveBatch(n, context.Background(), batches[0], vdl, mrpl); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if adv := n.CoalesceOnce(); adv != 1 {
			t.Fatalf("%s coalesced %d pages, want 1", n.NodeID(), adv)
		}
	}
	return nodes
}

// TestCorruptionInvisibleToReaders is the end-to-end contract the CorruptPage
// fault depends on: after a base image is corrupted, (1) the corrupt replica
// refuses the read with ErrCorruptPage instead of serving bad bytes, (2) the
// scrubber detects the corruption and repairs the image from a peer, and
// (3) the repaired replica serves bytes identical to a healthy peer's.
// Nothing in the window between corruption and repair can hand a reader a
// page whose checksum does not verify.
func TestCorruptionInvisibleToReaders(t *testing.T) {
	nodes := scrubPG(t)
	victim, peer := nodes[0], nodes[1]

	healthy, err := peer.ReadPage(context.Background(), 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}

	if !victim.CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}

	// (1) The read path must refuse, not serve, the corrupt base.
	_, err = victim.ReadPage(context.Background(), 1, 8, 0)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of corrupt page: err=%v, want ErrCorruptPage", err)
	}
	if got := victim.Stats().CorruptReads; got != 1 {
		t.Fatalf("CorruptReads = %d, want 1", got)
	}

	// (2) One scrub pass detects and repairs from a peer.
	if bad := victim.ScrubOnce(); bad != 1 {
		t.Fatalf("scrub found %d corrupt pages, want 1", bad)
	}
	s := victim.Stats()
	if s.ScrubsRepaired != 1 {
		t.Fatalf("ScrubsRepaired = %d, want 1", s.ScrubsRepaired)
	}

	// (3) The repaired image serves bytes identical to the healthy peer.
	repaired, err := victim.ReadPage(context.Background(), 1, 8, 0)
	if err != nil {
		t.Fatalf("read after scrub: %v", err)
	}
	if !bytes.Equal(repaired, healthy) {
		t.Fatal("repaired page differs from healthy peer's copy")
	}
}

// TestScrubSkipsCorruptPeerCopy: a repair must verify the peer's image
// before installing it — with the nearest peer corrupt too, the scrubber
// keeps walking until it finds a clean copy.
func TestScrubSkipsCorruptPeerCopy(t *testing.T) {
	nodes := scrubPG(t)
	victim := nodes[0]
	if !victim.CorruptPage(1) || !nodes[1].CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}
	if bad := victim.ScrubOnce(); bad != 1 {
		t.Fatalf("scrub found %d corrupt pages, want 1", bad)
	}
	if victim.Stats().ScrubsRepaired != 1 {
		t.Fatal("victim not repaired despite four clean peers")
	}
	p, err := victim.ReadPage(context.Background(), 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:8]); got != "abcdefgh" {
		t.Fatalf("payload after repair: %q", got)
	}
}

// TestCoalesceDoesNotLaunderCorruption: coalescing stamps a fresh CRC on the
// base it folds onto, so it must verify the old one first — otherwise a base
// corrupted since its last scrub comes out of the round looking healthy, is
// served to readers, and the scrubber never sees it again. A bad base aborts
// the round like a bad record does and is left to the scrubber.
func TestCoalesceDoesNotLaunderCorruption(t *testing.T) {
	nodes := scrubPG(t)
	victim, peer := nodes[0], nodes[1]
	ctx := context.Background()
	if !victim.CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}
	// The PGMRPL moves over the rest of the chain: the next round would fold
	// records 6..8 onto the corrupt base.
	if _, _, err := victim.Ingest(ctx, nil, 8, 8, nil); err != nil {
		t.Fatal(err)
	}
	if adv := victim.CoalesceOnce(); adv != 0 {
		t.Fatalf("coalesced %d pages onto a corrupt base", adv)
	}
	if got := victim.GCTail(); got != 5 {
		t.Fatalf("GC tail %d after the aborted round, want 5", got)
	}
	if _, err := victim.ReadPage(ctx, 1, 8, 0); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read after coalescing over a corrupt base: err=%v, want ErrCorruptPage", err)
	}
	if bad := victim.ScrubOnce(); bad != 1 {
		t.Fatalf("scrub found %d corrupt pages, want 1", bad)
	}
	repaired, err := victim.ReadPage(ctx, 1, 8, 0)
	if err != nil {
		t.Fatalf("read after scrub: %v", err)
	}
	healthy, err := peer.ReadPage(ctx, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, healthy) {
		t.Fatal("repaired page differs from healthy peer's copy")
	}
	// With the base repaired the round goes through.
	if adv := victim.CoalesceOnce(); adv != 1 || victim.GCTail() != 8 {
		t.Fatalf("round after repair advanced %d pages to GC tail %d, want 1 and 8", adv, victim.GCTail())
	}
}

// TestScrubRepairFilesBorrowedRecords: a record the victim never received
// arrives on the chain a scrub repair borrows from a peer. It must go through
// the one filing path, so that the log holds it: the SCL links it and its CPL
// is seen.
func TestScrubRepairFilesBorrowedRecords(t *testing.T) {
	_, nodes := testPG(t, nil)
	victim := nodes[0]
	ctx := context.Background()
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	for i := 0; i < 8; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, 1, uint32(i), []byte{byte('a' + i)})
		b := frame(t, f, m)[0]
		to := nodes
		if i == 7 {
			to = nodes[1:] // the victim misses the 8th record
		}
		for _, n := range to {
			if _, err := receiveBatch(n, ctx, b, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if _, _, err := n.Ingest(ctx, nil, 7, 5, nil); err != nil { // VDL 7, PGMRPL 5
			t.Fatal(err)
		}
		if adv := n.CoalesceOnce(); adv != 1 {
			t.Fatalf("%s coalesced %d pages, want 1", n.NodeID(), adv)
		}
	}
	if v := victim.RecoveryView(); victim.SCL() != 7 || topCPL(v) != 7 {
		t.Fatalf("setup: victim SCL %d, highest CPL %d, want 7 and 7", victim.SCL(), topCPL(v))
	}
	if !victim.CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}
	if bad := victim.ScrubOnce(); bad != 1 || victim.Stats().ScrubsRepaired != 1 {
		t.Fatalf("scrub found %d corrupt pages, repaired %d", bad, victim.Stats().ScrubsRepaired)
	}
	checkDirtyList(t, victim, "after scrub repair")
	for i := 0; i < 3; i++ {
		victim.GossipOnce()
	}
	if scl, top := victim.SCL(), victim.HighestLSN(); scl != 8 || top != 8 || victim.HasGaps() {
		t.Fatalf("after repair and gossip: SCL %d, highest LSN %d, gaps %v; want 8, 8 and none", scl, top, victim.HasGaps())
	}
	if got := topCPL(victim.RecoveryView()); got != 8 {
		t.Fatalf("highest CPL %d: the borrowed record closes an MTR and never reached the log", got)
	}
	if s := victim.Stats(); s.RecordsHeld != 3 {
		t.Fatalf("victim holds %d records above its GC tail of 5, want 6..8", s.RecordsHeld)
	}
	p, err := victim.ReadPage(ctx, 1, 8, 8)
	if err != nil {
		t.Fatalf("read at the tail after repair: %v", err)
	}
	if got := string(p.Payload()[:8]); got != "abcdefgh" {
		t.Fatalf("payload after repair: %q", got)
	}
}

// TestScrubRepairFromPeerBehindGCTail: replicas coalesce on their own view of
// the PGMRPL, so the peer a repair borrows from may hold an older base than
// the victim's GC tail. The records between the two are collected on the
// victim and must come back on the chain — the borrowed base does not reflect
// them — without re-entering the log below the GC boundary.
func TestScrubRepairFromPeerBehindGCTail(t *testing.T) {
	nodes := scrubPG(t) // everyone: base at 5, chain 6..8
	victim := nodes[0]
	ctx := context.Background()
	if _, _, err := victim.Ingest(ctx, nil, 8, 8, nil); err != nil {
		t.Fatal(err)
	}
	if adv := victim.CoalesceOnce(); adv != 1 || victim.GCTail() != 8 {
		t.Fatalf("setup: victim advanced %d pages to GC tail %d, want 1 and 8", adv, victim.GCTail())
	}
	healthy, err := victim.ReadPage(ctx, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !victim.CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}
	if bad := victim.ScrubOnce(); bad != 1 || victim.Stats().ScrubsRepaired != 1 {
		t.Fatalf("scrub found %d corrupt pages, repaired %d", bad, victim.Stats().ScrubsRepaired)
	}
	checkDirtyList(t, victim, "after repair from a peer behind the GC tail")
	if base, chain := victim.BasePageLSN(1), victim.ChainLength(1); base != 5 || chain != 3 {
		t.Fatalf("after repair: base at %d with a chain of %d, want the peer's base at 5 and records 6..8", base, chain)
	}
	if s := victim.Stats(); s.RecordsHeld != 0 || victim.SCL() != 8 {
		t.Fatalf("after repair: %d records back in the log below the GC tail, SCL %d", s.RecordsHeld, victim.SCL())
	}
	repaired, err := victim.ReadPage(ctx, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(repaired, healthy) {
		t.Fatal("repaired page differs from what the victim served before the corruption")
	}
	// A second repair finds the borrowed records already on the chain.
	if !victim.CorruptPage(1) || victim.ScrubOnce() != 1 || victim.ChainLength(1) != 3 {
		t.Fatalf("second repair left a chain of %d, want 3", victim.ChainLength(1))
	}
}

// TestScrubRepairsOnlyFromACompletePeer: peer A never received page 1's first
// record, and its peers have since collected it, so A holds the page as a
// chain that starts late over no base; peer B holds it whole. The victim's
// own copy of that record is folded into the base that just went corrupt.
// A repair from A would install A's chain over no base and serve a zero page
// where "a" belongs, with the victim's SCL vouching for it; the scrubber must
// pass A over for B. With A the only live peer the page stays refused.
func TestScrubRepairsOnlyFromACompletePeer(t *testing.T) {
	setup := func(t *testing.T) (victim, a, b *Node) {
		_, nodes := testPG(t, nil)
		victim, a, b = nodes[0], nodes[1], nodes[2]
		ctx := context.Background()
		f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
		for i := 0; i < 8; i++ {
			m := &core.MTR{Txn: uint64(i)}
			m.AddDelta(0, 1, uint32(i), []byte{byte('a' + i)})
			bv := frame(t, f, m)[0]
			for _, n := range nodes {
				if i == 0 && n == a {
					continue // A misses the page's first record
				}
				if _, err := receiveBatch(n, ctx, bv, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range []*Node{victim, a, b} {
			if _, _, err := n.Ingest(ctx, nil, 8, 5, nil); err != nil { // VDL 8, PGMRPL 5
				t.Fatal(err)
			}
			n.CoalesceOnce()
		}
		if victim.GCTail() != 5 || a.SCL() != 0 || a.BasePageLSN(1) != 0 || a.ChainLength(1) != 7 {
			t.Fatalf("setup: victim GC tail %d; A SCL %d, base at %d, chain of %d; want 5, 0, 0, 7",
				victim.GCTail(), a.SCL(), a.BasePageLSN(1), a.ChainLength(1))
		}
		victim.SetPeers([]*Node{a, b}) // A is asked first
		if !victim.CorruptPage(1) {
			t.Fatal("no base image to corrupt")
		}
		return victim, a, b
	}

	t.Run("complete-peer", func(t *testing.T) {
		victim, _, _ := setup(t)
		if bad := victim.ScrubOnce(); bad != 1 || victim.Stats().ScrubsRepaired != 1 {
			t.Fatalf("scrub found %d corrupt pages, repaired %d; want 1 and 1", bad, victim.Stats().ScrubsRepaired)
		}
		p, err := victim.ReadPage(context.Background(), 1, 8, 8)
		if err != nil {
			t.Fatalf("read after repair: %v", err)
		}
		if got := string(p.Payload()[:8]); got != "abcdefgh" {
			t.Fatalf("payload after repair: %q, want %q", got, "abcdefgh")
		}
	})

	t.Run("only-incomplete-peer", func(t *testing.T) {
		victim, _, b := setup(t)
		b.Crash()
		if bad := victim.ScrubOnce(); bad != 1 || victim.Stats().ScrubsRepaired != 0 {
			t.Fatalf("scrub found %d corrupt pages, repaired %d; want 1 and 0", bad, victim.Stats().ScrubsRepaired)
		}
		if _, err := victim.ReadPage(context.Background(), 1, 8, 8); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("read with only an incomplete peer to repair from: err=%v, want ErrCorruptPage", err)
		}
	})
}
