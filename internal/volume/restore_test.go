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
	"aurora/internal/storage"
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

// waitForStragglers waits until every replica of every PG holds the PG's
// durable tail: a write returns at four acks of six, and the fifth and sixth
// deliveries land afterwards.
func waitForStragglers(t *testing.T, f *Fleet, c *Client) {
	t.Helper()
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
}

func TestRestoreRepairsMissingReplicas(t *testing.T) {
	f, c, store, setClock := pitrStack(t)
	for i := 0; i < 6; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("d%d", i))
	}
	setClock(time.Unix(2000, 0))
	// Without the wait one of the four backups below can be of a replica
	// that has seen nothing yet — a different scenario (a backup that trails
	// its peers), which failed this test in about a third of fresh processes
	// at PR 23.
	waitForStragglers(t, f, c)
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

// TestRestoredCloneSharesKeysEachRestoresItsOwnChain: a volume restored from
// its source's backups backs up under the very keys its source does, so one
// key interleaves two chains — the source's deltas on the source's image, the
// clone's on its own. A restore walks the chain of the version it picks and
// only that one: filing every delta after the picked image would graft the
// other volume's redo onto this one's segments.
func TestRestoredCloneSharesKeysEachRestoresItsOwnChain(t *testing.T) {
	ctx := context.Background()
	f, c, store, setClock := pitrStack(t)
	// write writes tag to pages 0..5 and waits until all six replicas hold
	// it: a replica that trailed at its first pass would stage a near-empty
	// image, and every delta after it would outweigh the image.
	write := func(f *Fleet, c *Client, tag string) {
		for i := 0; i < 6; i++ {
			writePage(t, c, core.PageID(i), fmt.Sprintf("%s-%d", tag, i))
		}
		waitForStragglers(t, f, c)
	}
	coalesce := func(f *Fleet) {
		for g := 0; g < f.PGs(); g++ {
			for _, n := range f.Replicas(core.PGID(g)) {
				n.CoalesceOnce()
			}
		}
	}
	// pass backs up every segment of f at second at and returns each key's
	// new version.
	pass := func(f *Fleet, at int64) map[string]int {
		setClock(time.Unix(at, 0))
		vs := map[string]int{}
		for g := 0; g < f.PGs(); g++ {
			for _, n := range f.Replicas(core.PGID(g)) {
				if vs[n.BackupKey()] = n.BackupNow(); vs[n.BackupKey()] == 0 {
					t.Fatal("backup failed")
				}
			}
		}
		return vs
	}
	// restore restores the volume as of second at; check sees the fleet
	// before recovery truncates anything.
	restore := func(at int64, check func(*Fleet)) (*Fleet, *Client) {
		rf, _, err := RestoreFleet(FleetConfig{Name: "pitr", Geometry: core.UniformGeometry(2),
			Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal(), Store: store}, time.Unix(at, 0))
		if err != nil {
			t.Fatalf("restore as of %d: %v", at, err)
		}
		check(rf)
		rc, _, err := Recover(ctx, rf, ClientConfig{WriterNode: "restored", WriterAZ: 0})
		if err != nil {
			t.Fatalf("recover as of %d: %v", at, err)
		}
		t.Cleanup(rc.Close)
		return rf, rc
	}

	write(f, c, "src1")
	coalesce(f) // bases, so an image outweighs the deltas on it
	srcImage := pass(f, 2000)
	write(f, c, "src2")
	pass(f, 3000)
	clone, cc := restore(3500, func(*Fleet) {})
	write(clone, cc, "cln1")
	coalesce(clone)
	cloneImage := pass(clone, 4000)
	write(clone, cc, "cln2")
	cloneDelta := pass(clone, 5000)
	write(f, c, "src3")
	srcDelta := pass(f, 6000)
	srcTail := c.VDL()

	for key, v := range srcDelta {
		base := func(v int) int {
			obj, err := store.GetVersion(key, v)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := storage.DeltaBase(obj)
			if !ok {
				t.Fatalf("%s v%d is a full image, want a delta", key, v)
			}
			return b
		}
		if base(v) != srcImage[key] || base(cloneDelta[key]) != cloneImage[key] || cloneImage[key] < srcImage[key] || v < cloneImage[key] {
			t.Fatalf("%s: source image v%d and delta v%d, clone image v%d and delta v%d: the chains do not interleave",
				key, srcImage[key], v, cloneImage[key], cloneDelta[key])
		}
	}
	for _, tc := range []struct {
		at     int64
		tag    string
		source bool
	}{{2500, "src1", true}, {3500, "src2", true}, {4500, "cln1", false}, {5500, "cln2", false}, {6500, "src3", true}} {
		_, rc := restore(tc.at, func(rf *Fleet) {
			// The clone writes above its own recovery bound, far above anything
			// the source wrote: a source restore holding such an LSN took a
			// clone delta, whatever recovery then truncates.
			for g := 0; tc.source && g < rf.PGs(); g++ {
				for r, n := range rf.Replicas(core.PGID(g)) {
					if h := n.HighestLSN(); h > srcTail {
						t.Fatalf("as of %d, pg %d replica %d holds LSN %d, above the source's last %d", tc.at, g, r, h, srcTail)
					}
				}
			}
		})
		for i := 0; i < 6; i++ {
			p, _, err := rc.ReadPage(ctx, core.PageID(i))
			if err != nil {
				t.Fatalf("as of %d, page %d: %v", tc.at, i, err)
			}
			if got, want := string(p.Payload()[:len(tc.tag)+2]), fmt.Sprintf("%s-%d", tc.tag, i); got != want {
				t.Fatalf("as of %d, page %d: %q, want %q", tc.at, i, got, want)
			}
		}
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
