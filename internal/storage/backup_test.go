package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
)

// Contracts of incremental continuous backup: a pass stages the records filed
// since the previous one on top of the last full image, never more bytes than
// that image, and image plus deltas restore exactly what the node holds.

// backupRig is a protection group with an object store and one framer, so
// that successive writes continue a single log.
type backupRig struct {
	t     testing.TB
	store *objstore.Store
	nodes []*Node
	f     *core.Framer
	txns  uint64
	tail  core.LSN
}

func newBackupRig(t testing.TB, store *objstore.Store) *backupRig {
	_, nodes := testPG(t, store)
	return &backupRig{t: t, store: store, nodes: nodes, f: core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)}
}

// write frames count MTRs — a delta on one of pages 1..3, closed by a commit
// record that is the CPL — and delivers each to the nodes to(i) picks, with
// the PGMRPL lag records behind the tail.
func (r *backupRig) write(count int, lag core.LSN, to func(i int) []*Node) {
	r.t.Helper()
	for i := 0; i < count; i++ {
		r.txns++
		m := &core.MTR{Txn: r.txns}
		m.AddDelta(0, core.PageID(1+r.txns%3), uint32(8*r.txns%200), []byte{byte(r.txns), byte(r.txns >> 8), 7})
		m.AddMeta(core.RecTxnCommit, 0)
		b := frame(r.t, r.f, m)[0]
		r.tail = b.Last()
		mrpl := core.ZeroLSN
		if r.tail > lag {
			mrpl = r.tail - lag
		}
		for _, n := range to(i) {
			if _, err := receiveBatch(n, context.Background(), b, r.tail, mrpl); err != nil {
				r.t.Fatal(err)
			}
		}
	}
}

// object returns the backup object version v of n's segment.
func (r *backupRig) object(n *Node, v int) []byte {
	r.t.Helper()
	obj, err := r.store.GetVersion(n.BackupKey(), v)
	if err != nil {
		r.t.Fatalf("backup version %d: %v", v, err)
	}
	return obj
}

// restoredNode is an empty node for n's segment — the same backup key — on a
// network of its own.
func restoredNode(n *Node, store *objstore.Store) *Node {
	return NewNode(Config{Seg: n.Seg(), Vol: n.Vol(), Node: "restored", Net: netsim.New(netsim.FastLocal()),
		Disk: disk.FastLocal(), Store: store})
}

// sameSegment holds got to want: the same SCL and highest LSN, the same CPL
// floor at every limit a recovery could ask for (from want's GC tail up), and
// every page of 1..pages read at the SCL byte-identical — once both copies
// carry a CRC of their own bytes, since a response carries the CRC of the
// base it was folded from, and that names the base.
func sameSegment(t *testing.T, got, want *Node, pages int) {
	t.Helper()
	scl := want.SCL()
	if got.SCL() != scl || got.HighestLSN() != want.HighestLSN() {
		t.Fatalf("restored SCL %d, highest LSN %d; want %d, %d", got.SCL(), got.HighestLSN(), scl, want.HighestLSN())
	}
	for l := want.GCTail(); l <= want.HighestLSN(); l++ {
		if g, w := got.HighestCPLAtOrBelow(l), want.HighestCPLAtOrBelow(l); g != w {
			t.Fatalf("highest CPL at or below %d: restored %d, want %d", l, g, w)
		}
	}
	ctx := context.Background()
	for id := core.PageID(1); id <= core.PageID(pages); id++ {
		g, gerr := got.ReadPage(ctx, id, scl, scl)
		w, werr := want.ReadPage(ctx, id, scl, scl)
		if gerr != nil || werr != nil {
			if !errors.Is(gerr, ErrNoSuchPage) || !errors.Is(werr, ErrNoSuchPage) {
				t.Fatalf("page %d at %d: restored %v, want %v", id, scl, gerr, werr)
			}
			continue
		}
		g.UpdateChecksum()
		w.UpdateChecksum()
		if !bytes.Equal(g, w) {
			t.Fatalf("page %d at %d differs from the node's own", id, scl)
		}
	}
}

// TestRestoreImagePlusDeltasMatchesSnapshot is the restore differential: a
// node restored from a full image and three deltas — holding records that
// arrived by gossip out of LSN order and records a coalesce round collected
// before the pass — answers exactly as LoadSnapshot(n.Snapshot()) taken at
// the same moment.
func TestRestoreImagePlusDeltasMatchesSnapshot(t *testing.T) {
	r := newBackupRig(t, objstore.New())
	n := r.nodes[0]
	r.write(12, 4, all(r.nodes))
	n.CoalesceOnce()
	img := n.BackupNow()
	if _, ok := DeltaBase(r.object(n, img)); ok {
		t.Fatal("the first pass staged a delta: there is no image for it to extend")
	}
	for k := 0; k < 3; k++ {
		// A hole on n, records above it, then gossip fills the hole.
		r.write(3, 4, func(int) []*Node { return r.nodes[1:] })
		r.write(4, 4, all(r.nodes))
		if n.GossipOnce() == 0 {
			t.Fatal("gossip filled nothing")
		}
		if k%2 == 1 {
			n.CoalesceOnce()
		}
		v := n.BackupNow()
		if base, ok := DeltaBase(r.object(n, v)); !ok || base != img {
			t.Fatalf("pass %d: delta %v of image %d, want a delta of image %d", k, ok, base, img)
		}
	}
	want := restoredNode(n, nil)
	if err := want.LoadSnapshot(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := restoredNode(n, r.store)
	if err := got.LoadBackup(time.Now()); err != nil {
		t.Fatal(err)
	}
	sameSegment(t, got, want, 3)
}

// TestBackupKeepsRecordsCollectedBeforeThePass: records are immutable once
// filed, so the staging list keeps one alive past coalescing GC — a record
// folded and collected between two passes still reaches the backup.
func TestBackupKeepsRecordsCollectedBeforeThePass(t *testing.T) {
	r := newBackupRig(t, objstore.New())
	n := r.nodes[0]
	r.write(9, 3, all(r.nodes))
	n.CoalesceOnce()
	img := n.BackupNow()
	before := r.tail
	r.write(6, 0, all(r.nodes)) // PGMRPL at the tail: all of it collectable
	if n.CoalesceOnce() == 0 || n.Stats().RecordsHeld != 0 || n.GCTail() != r.tail {
		t.Fatalf("setup: %d records held, GC tail %d, want none and %d", n.Stats().RecordsHeld, n.GCTail(), r.tail)
	}
	obj := r.object(n, n.BackupNow())
	if base, ok := DeltaBase(obj); !ok || base != img {
		t.Fatalf("delta %v of image %d, want a delta of image %d", ok, base, img)
	}
	_, recs, err := decodeDelta(obj)
	if err != nil {
		t.Fatal(err)
	}
	staged := map[core.LSN]bool{}
	for _, rec := range recs {
		staged[rec.LSN] = true
	}
	for l := before + 1; l <= r.tail; l++ {
		if !staged[l] {
			t.Fatalf("record %d, collected before the pass, is not in the delta", l)
		}
	}
	want := restoredNode(n, nil)
	if err := want.LoadSnapshot(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := restoredNode(n, r.store)
	if err := got.LoadBackup(time.Now()); err != nil {
		t.Fatal(err)
	}
	sameSegment(t, got, want, 3)
}

// TestNonAppendChangesStageAFullImage: a truncation, a repair from a peer, a
// wipe and a scrub repair each change the segment in a way no list of filed
// records describes, so the pass after one stages the full image — and a
// record the truncation annulled is never restored.
func TestNonAppendChangesStageAFullImage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(r *backupRig, n *Node) error
	}{
		{"truncate", func(r *backupRig, n *Node) error {
			return n.Truncate(core.TruncationRange{Epoch: 1, From: r.tail - 4, To: r.tail + 100})
		}},
		{"repair from a peer", func(r *backupRig, n *Node) error {
			return n.RepairFrom(r.nodes[1])
		}},
		{"wipe", func(r *backupRig, n *Node) error {
			n.Wipe()
			return nil
		}},
		{"scrub repair", func(r *backupRig, n *Node) error {
			if !n.CorruptPage(2) || n.ScrubOnce() != 1 || n.Stats().ScrubsRepaired != 1 {
				return errors.New("no scrub repair happened")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newBackupRig(t, objstore.New())
			n := r.nodes[0]
			r.write(9, 3, all(r.nodes))
			for _, p := range r.nodes {
				p.CoalesceOnce()
			}
			n.BackupNow()
			r.write(6, 3, all(r.nodes)) // staged: a delta would carry these
			if err := tc.change(r, n); err != nil {
				t.Fatal(err)
			}
			if base, ok := DeltaBase(r.object(n, n.BackupNow())); ok {
				t.Fatalf("the pass after the change staged a delta of image %d", base)
			}
			want := restoredNode(n, nil)
			if err := want.LoadSnapshot(n.Snapshot()); err != nil {
				t.Fatal(err)
			}
			got := restoredNode(n, r.store)
			if err := got.LoadBackup(time.Now()); err != nil {
				t.Fatal(err)
			}
			sameSegment(t, got, want, 3)
			if tc.name == "truncate" && got.HighestLSN() != r.tail-4 {
				t.Fatalf("restored highest LSN %d, want the truncation point %d", got.HighestLSN(), r.tail-4)
			}
		})
	}
}

// TestBackupPassNeverStagesMoreThanTheImage: over a seeded run of writes,
// gossip and coalescing, no pass stores more bytes than the full image at the
// same moment, and the deltas on an image never add up to more than it — so a
// restore replays at most one image's worth of redo.
func TestBackupPassNeverStagesMoreThanTheImage(t *testing.T) {
	r := newBackupRig(t, objstore.New())
	n := r.nodes[0]
	images, deltas, image, since := 0, 0, 0, 0
	pass := func(label string) {
		t.Helper()
		limit := len(n.Snapshot())
		obj := r.object(n, n.BackupNow())
		if len(obj) > limit {
			t.Fatalf("%s: staged %d bytes, the full image is %d", label, len(obj), limit)
		}
		if _, ok := DeltaBase(obj); !ok {
			images, image, since = images+1, len(obj), 0
			return
		}
		deltas++
		if since += len(obj); since > image {
			t.Fatalf("%s: %d delta bytes on an image of %d", label, since, image)
		}
	}
	// An image of a long retained log; then a round folds the log into three
	// bases and collects it, so the image shrinks to well under what was staged
	// since — a delta that fits the old image's budget but not the new image.
	r.write(400, 1000, all(r.nodes))
	pass("long log")
	r.write(250, 0, all(r.nodes))
	n.CoalesceOnce()
	pass("after the log shrank")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		r.write(rng.Intn(12), core.LSN(rng.Intn(8)), all(r.nodes))
		if rng.Intn(3) == 0 {
			n.CoalesceOnce()
		}
		pass("seeded pass")
	}
	if images < 3 || deltas < 20 {
		t.Fatalf("%d images and %d deltas: the run did not exercise both", images, deltas)
	}
}

// TestNodeWithoutStoreKeepsNoStagingList: the staging list exists for a
// backup pass, and a node without a store runs none — the backup-off
// workloads file exactly as they did. `make bench-allocs` runs it.
func TestNodeWithoutStoreKeepsNoStagingList(t *testing.T) {
	r := newBackupRig(t, nil)
	r.write(40, 4, func(int) []*Node { return r.nodes[:4] })
	for _, n := range r.nodes {
		n.GossipOnce()
		n.CoalesceOnce()
		if n.BackupNow() != 0 {
			t.Fatal("a node without a store staged a backup")
		}
		n.mu.Lock()
		staging, held := n.staging, cap(n.staged)
		n.mu.Unlock()
		if staging || held != 0 {
			t.Fatalf("%s keeps a staging list (staging %v, capacity %d) with no store", n.NodeID(), staging, held)
		}
	}
	// With a store, the list is live from the first pass on.
	s := newBackupRig(t, objstore.New())
	n := s.nodes[0]
	n.BackupNow()
	s.write(3, 4, all(s.nodes))
	n.mu.Lock()
	staged := len(n.staged)
	n.mu.Unlock()
	if staged != 6 {
		t.Fatalf("a node with a store staged %d records, want 6", staged)
	}
}

// TestBackupUnderIngestAndCoalesce: passes run while ingest and coalescing
// run flat out — each delta's list is swapped under the lock and encoded
// outside it — and the chain then restores to exactly the node. Run under
// -race -count=20 by `make race`.
func TestBackupUnderIngestAndCoalesce(t *testing.T) {
	const pages = 4
	store := objstore.New()
	_, nodes := testPG(t, store)
	n := nodes[0]
	views, _, _ := coalesceLoad(t, 3, 300, pages)
	var done atomic.Bool
	var wg sync.WaitGroup
	for _, loop := range []func(){func() { n.CoalesceOnce() }, func() { n.BackupNow() }} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				loop()
				runtime.Gosched()
			}
		}()
	}
	for i, v := range views {
		mrpl := core.ZeroLSN
		if i >= 8 {
			mrpl = views[i-8].Last()
		}
		if _, err := receiveBatch(n, context.Background(), v, v.Last(), mrpl); err != nil {
			t.Error(err)
			break
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	n.BackupNow()

	key, deltas := n.BackupKey(), 0
	for v := 1; v <= store.Versions(key); v++ {
		obj, err := store.GetVersion(key, v)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := DeltaBase(obj); ok {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("no pass staged a delta")
	}
	want := restoredNode(n, nil)
	if err := want.LoadSnapshot(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := restoredNode(n, store)
	if err := got.LoadBackup(time.Now()); err != nil {
		t.Fatal(err)
	}
	sameSegment(t, got, want, pages)
}

// regionIntact locates the log region at data[off:] and reports whether its
// checksum holds; found is false when the bytes end before the region does.
func regionIntact(data []byte, off int) (intact, found bool) {
	if off < 0 || len(data)-off < 8 {
		return false, false
	}
	size := int(binary.LittleEndian.Uint32(data[off:]))
	if len(data)-off-8 < size {
		return false, false
	}
	return crc32.Checksum(data[off+8:off+8+size], castagnoli) == binary.LittleEndian.Uint32(data[off+4:]), true
}

// snapshotRegionAt walks a snapshot's page section the way the loader does
// and returns where its log region starts, or -1 when the bytes end first.
func snapshotRegionAt(data []byte) int {
	if len(data) < 8 {
		return -1
	}
	off := 8
	for i := binary.LittleEndian.Uint32(data[4:]); i > 0; i-- {
		if len(data)-off < 9 {
			return -1
		}
		if data[off+8] == 1 {
			off += page.Size
		}
		off += 9
	}
	return off
}

// FuzzLoadSnapshot: a full image is the backup surface a restore trusts
// first. Whatever the bytes, LoadSnapshot must not panic, must refuse a log
// region whose checksum fails, and whatever it accepts must snapshot into an
// image that loads again.
func FuzzLoadSnapshot(f *testing.F) {
	r := newBackupRig(f, nil)
	n := r.nodes[0]
	r.write(9, 3, all(r.nodes))
	n.CoalesceOnce()
	r.write(4, 3, all(r.nodes))
	f.Add(n.Snapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		got := restoredNode(n, nil)
		err := got.LoadSnapshot(data)
		if intact, found := regionIntact(data, snapshotRegionAt(data)); found && !intact && err == nil {
			t.Fatal("loaded a snapshot whose log region fails its checksum")
		}
		if err != nil {
			return
		}
		if err := restoredNode(n, nil).LoadSnapshot(got.Snapshot()); err != nil {
			t.Fatalf("an accepted snapshot does not survive its own round trip: %v", err)
		}
	})
}

// FuzzLoadDelta: a delta is filed on top of a real image. Whatever the bytes,
// loading it must not panic, must refuse a log region whose checksum fails,
// and a refused delta must leave the node exactly as it was.
func FuzzLoadDelta(f *testing.F) {
	r := newBackupRig(f, objstore.New())
	n := r.nodes[0]
	r.write(9, 3, all(r.nodes))
	n.CoalesceOnce()
	image := r.object(n, n.BackupNow())
	r.write(3, 3, func(int) []*Node { return r.nodes[1:] })
	r.write(4, 3, all(r.nodes))
	n.GossipOnce()
	delta := r.object(n, n.BackupNow())
	if _, ok := DeltaBase(delta); !ok {
		f.Fatal("setup: the second pass staged no delta")
	}
	f.Add(delta)
	f.Fuzz(func(t *testing.T, data []byte) {
		got := restoredNode(n, nil)
		if err := got.LoadSnapshot(image); err != nil {
			t.Fatal(err)
		}
		before := got.Snapshot()
		err := got.loadDelta(data)
		if _, ok := DeltaBase(data); ok {
			if intact, found := regionIntact(data, deltaHeaderSize-8); found && !intact && err == nil {
				t.Fatal("loaded a delta whose log region fails its checksum")
			}
		}
		if err != nil && !bytes.Equal(got.Snapshot(), before) {
			t.Fatalf("a refused delta (%v) changed the node", err)
		}
	})
}
