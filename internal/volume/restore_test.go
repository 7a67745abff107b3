package volume

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
)

// pitrStack builds a fleet with an object store and a controllable clock.
func pitrStack(t *testing.T) (*Fleet, *Client, *objstore.Store, func(time.Time)) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	store := objstore.New()
	now := time.Unix(1000, 0)
	store.SetClock(func() time.Time { return now })
	f, err := NewFleet(FleetConfig{Name: "pitr", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	t.Cleanup(c.Close)
	return f, c, store, func(tt time.Time) { now = tt }
}

func backupAll(t *testing.T, f *Fleet) {
	t.Helper()
	for g := 0; g < f.PGs(); g++ {
		for _, n := range f.Replicas(core.PGID(g)) {
			if v := n.BackupNow(); v == 0 {
				t.Fatal("backup failed")
			}
		}
	}
}

func TestPointInTimeRestore(t *testing.T) {
	f, c, store, setClock := pitrStack(t)

	// Epoch 1: write v1 everywhere, back up at t=2000.
	for i := 0; i < 10; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("v1-%02d", i))
	}
	setClock(time.Unix(2000, 0))
	backupAll(t, f)

	// Epoch 2: overwrite with v2, back up at t=3000.
	for i := 0; i < 10; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("v2-%02d", i))
	}
	setClock(time.Unix(3000, 0))
	backupAll(t, f)

	// Restore as of t=2500: must see v1, not v2.
	net2 := netsim.New(netsim.FastLocal())
	restored, rep, err := RestoreFleet(FleetConfig{
		Name: "pitr", Geometry: core.UniformGeometry(2), Net: net2, Disk: disk.FastLocal(), Store: store,
	}, time.Unix(2500, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 12 {
		t.Fatalf("restored %d segments, want 12", rep.Segments)
	}
	c2, rrep, err := Recover(context.Background(), restored, ClientConfig{WriterNode: "restored-writer", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rrep.VDL == 0 {
		t.Fatal("restored volume has no durable point")
	}
	for i := 0; i < 10; i++ {
		p, _, err := c2.ReadPage(context.Background(), core.PageID(i))
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := fmt.Sprintf("v1-%02d", i)
		if got := string(p.Payload()[:len(want)]); got != want {
			t.Fatalf("page %d after PITR: %q, want %q", i, got, want)
		}
	}
	// The restored volume is writable and independent of the source.
	writePage(t, c2, 0, "post-restore")
	p, _, err := c.ReadPage(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:2]); got != "v2" {
		t.Fatalf("source volume changed by restore: %q", got)
	}
}

func TestRestoreAtLatestSeesNewest(t *testing.T) {
	f, c, store, setClock := pitrStack(t)
	writePage(t, c, 0, "old")
	setClock(time.Unix(2000, 0))
	backupAll(t, f)
	writePage(t, c, 0, "new")
	setClock(time.Unix(3000, 0))
	backupAll(t, f)

	net2 := netsim.New(netsim.FastLocal())
	restored, _, err := RestoreFleet(FleetConfig{
		Name: "pitr", Geometry: core.UniformGeometry(2), Net: net2, Disk: disk.FastLocal(), Store: store,
	}, time.Unix(9999, 0))
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := Recover(context.Background(), restored, ClientConfig{WriterNode: "w2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	p, _, err := c2.ReadPage(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:3]); got != "new" {
		t.Fatalf("latest restore payload %q", got)
	}
}

func TestRestoreBeforeAnyBackupFails(t *testing.T) {
	f, c, store, setClock := pitrStack(t)
	writePage(t, c, 0, "x")
	setClock(time.Unix(2000, 0))
	backupAll(t, f)

	net2 := netsim.New(netsim.FastLocal())
	_, _, err := RestoreFleet(FleetConfig{
		Name: "pitr", Geometry: core.UniformGeometry(2), Net: net2, Disk: disk.FastLocal(), Store: store,
	}, time.Unix(500, 0))
	if !errors.Is(err, ErrNoBackup) {
		t.Fatalf("restore before first backup: %v", err)
	}
}

func TestRestoreRepairsMissingReplicas(t *testing.T) {
	f, c, store, setClock := pitrStack(t)
	for i := 0; i < 6; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("d%d", i))
	}
	setClock(time.Unix(2000, 0))
	// A write returns at four acks of six: wait out the stragglers, or one of
	// the four backups below is of a replica that has seen nothing yet — a
	// different scenario (a backup that trails its peers), which failed this
	// test in about a third of fresh processes at PR 23.
	for g := 0; g < f.PGs(); g++ {
		tail := c.DurableTail(core.PGID(g))
		for r, deadline := 0, time.Now().Add(5*time.Second); r < 6; {
			switch {
			case f.Node(core.PGID(g), r).SCL() >= tail:
				r++
			case time.Now().After(deadline):
				t.Fatalf("pg %d replica %d never caught up to %d", g, r, tail)
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	// Back up only four replicas of each PG: restore must repair the rest
	// from the restored peers.
	for g := 0; g < f.PGs(); g++ {
		for r := 0; r < 4; r++ {
			if v := f.Node(core.PGID(g), r).BackupNow(); v == 0 {
				t.Fatal("backup failed")
			}
		}
	}
	net2 := netsim.New(netsim.FastLocal())
	restored, rep, err := RestoreFleet(FleetConfig{
		Name: "pitr", Geometry: core.UniformGeometry(2), Net: net2, Disk: disk.FastLocal(), Store: store,
	}, time.Unix(2500, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 8 {
		t.Fatalf("loaded %d from backups, want 8", rep.Segments)
	}
	// Every replica — including the repaired ones — is whole.
	for g := 0; g < restored.PGs(); g++ {
		for r := 0; r < 6; r++ {
			if restored.Node(core.PGID(g), r).SCL() == 0 {
				t.Fatalf("pg %d replica %d empty after restore+repair", g, r)
			}
		}
	}
	c2, _, err := Recover(context.Background(), restored, ClientConfig{WriterNode: "w2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	p, _, err := c2.ReadPage(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:2]); got != "d3" {
		t.Fatalf("payload %q", got)
	}
}

func TestRestoreRequiresStore(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	if _, _, err := RestoreFleet(FleetConfig{Name: "x", Geometry: core.UniformGeometry(1), Net: net}, time.Now()); err == nil {
		t.Fatal("restore without store accepted")
	}
}

// TestRestoreChecksummedHistory is the integrity contract behind PITR:
// write three epochs of seeded random payloads, record every page's
// SHA-256 per epoch, back each epoch up, then restore each point in time
// and require byte-identical payloads — not just recognizable prefixes.
// The middle restore additionally corrupts a base image on one replica of
// the restored fleet and requires the read path to keep serving clean
// bytes (the CRC gate refuses the bad image, hedging serves a peer) until
// the scrubber repairs it.
func TestRestoreChecksummedHistory(t *testing.T) {
	f, c, store, setClock := pitrStack(t)
	const pages = 8
	rng := rand.New(rand.NewSource(77))
	var digests []map[core.PageID][sha256.Size]byte
	var asOf []time.Time
	for epoch := 0; epoch < 3; epoch++ {
		for p := 0; p < pages; p++ {
			buf := make([]byte, 600)
			rng.Read(buf)
			m := &core.MTR{Txn: uint64(epoch*pages + p + 1)}
			m.AddDelta(c.PGOf(core.PageID(p)), core.PageID(p), 0, buf)
			if _, err := c.WriteMTR(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		digs := map[core.PageID][sha256.Size]byte{}
		for p := 0; p < pages; p++ {
			pg, _, err := c.ReadPage(context.Background(), core.PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			digs[core.PageID(p)] = sha256.Sum256(pg.Payload())
		}
		digests = append(digests, digs)
		stamp := time.Unix(int64(2000+1000*epoch), 0)
		setClock(stamp)
		backupAll(t, f)
		asOf = append(asOf, stamp.Add(500*time.Second))
	}

	for epoch := 0; epoch < 3; epoch++ {
		restored, _, err := RestoreFleet(FleetConfig{
			Name: "pitr", Geometry: core.UniformGeometry(2), Net: netsim.New(netsim.FastLocal()),
			Disk: disk.FastLocal(), Store: store,
		}, asOf[epoch])
		if err != nil {
			t.Fatalf("epoch %d restore: %v", epoch, err)
		}
		c2, _, err := Recover(context.Background(), restored, ClientConfig{WriterNode: "cw", WriterAZ: 0})
		if err != nil {
			t.Fatalf("epoch %d recover: %v", epoch, err)
		}
		verify := func(p core.PageID) {
			t.Helper()
			pg, _, err := c2.ReadPage(context.Background(), p)
			if err != nil {
				t.Fatalf("epoch %d page %d: %v", epoch, p, err)
			}
			if sha256.Sum256(pg.Payload()) != digests[epoch][p] {
				t.Fatalf("epoch %d page %d: restored bytes differ from the epoch's digest", epoch, p)
			}
		}
		for p := 0; p < pages; p++ {
			verify(core.PageID(p))
		}
		if epoch == 1 {
			// Freshen PGMRPL on page 0's PG with a scratch write outside the
			// digest set, so the victim can materialize a base to corrupt.
			m := &core.MTR{Txn: 999}
			scratch := core.PageID(pages + int(restored.PGs()))
			for c2.PGOf(scratch) != c2.PGOf(0) {
				scratch++
			}
			m.AddDelta(c2.PGOf(scratch), scratch, 0, []byte("scratch"))
			if _, err := c2.WriteMTR(context.Background(), m); err != nil {
				t.Fatal(err)
			}
			victim := restored.Node(restored.PGOf(0), 0)
			victim.CoalesceOnce()
			if !victim.CorruptPage(0) {
				t.Fatal("no base image materialized to corrupt")
			}
			verify(0) // clean bytes despite the corrupt replica: gate + peers
			if bad := victim.ScrubOnce(); bad < 1 {
				t.Fatalf("scrub found %d corrupt pages, want >= 1", bad)
			}
			verify(0) // and clean after repair, now from the victim itself too
		}
		c2.Close()
	}
}
