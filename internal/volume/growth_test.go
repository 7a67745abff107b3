package volume

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// TestGrowRoutesToNewPGs grows a quiet volume and verifies the geometry
// epoch advances, stripes land evenly, reads still return the right data,
// and the appended PGs actually serve reads (per-node IO counters).
func TestGrowRoutesToNewPGs(t *testing.T) {
	f, c := testVolume(t, 2)
	const pages = 200
	for i := 0; i < pages; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("v%03d", i))
	}
	e0 := f.Geometry().Epoch()

	rep, err := c.Grow(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.PGs(); got != 4 {
		t.Fatalf("PGs after grow: %d, want 4", got)
	}
	if len(rep.AddedPGs) != 2 || rep.AddedPGs[0] != 2 || rep.AddedPGs[1] != 3 {
		t.Fatalf("added PGs %v", rep.AddedPGs)
	}
	if rep.StripesMoved == 0 || rep.PagesCopied == 0 {
		t.Fatalf("no rebalancing happened: %+v", rep)
	}
	g := f.Geometry()
	if g.Epoch() <= e0+1 {
		t.Fatalf("epoch %d after grow from %d: no cutovers published", g.Epoch(), e0)
	}
	// Stripe distribution within one stripe of the mean.
	counts := make([]int, g.PGs())
	for s := 0; s < g.Stripes(); s++ {
		counts[g.StripePG(s)]++
	}
	base := g.Stripes() / g.PGs()
	for pg, n := range counts {
		if n < base || n > base+1 {
			t.Fatalf("pg %d holds %d stripes, want %d..%d", pg, n, base, base+1)
		}
	}
	// Every page still reads back its payload, and the new PGs serve reads.
	before := newPGReads(f)
	for i := 0; i < pages; i++ {
		p, _, err := c.ReadPage(context.Background(), core.PageID(i))
		if err != nil {
			t.Fatalf("page %d after grow: %v", i, err)
		}
		want := fmt.Sprintf("v%03d", i)
		if got := string(p.Payload()[:len(want)]); got != want {
			t.Fatalf("page %d after grow: %q, want %q", i, got, want)
		}
	}
	served := newPGReads(f) - before
	if served == 0 {
		t.Fatal("appended PGs served no reads after rebalance")
	}
	// A second growth is fine once the first finished.
	if _, err := c.Grow(1); err != nil {
		t.Fatal(err)
	}
	if f.PGs() != 5 {
		t.Fatalf("PGs after second grow: %d", f.PGs())
	}
	s := c.Stats()
	if s.WriteFailures != 0 {
		t.Fatalf("write failures during grow: %d", s.WriteFailures)
	}
	if s.PGs != 5 || s.GeometryEpoch != f.Geometry().Epoch() {
		t.Fatalf("stats out of sync: %+v", s)
	}
}

// newPGReads sums the read counters of PGs beyond the first two.
func newPGReads(f *Fleet) uint64 {
	var total uint64
	for g := 2; g < f.PGs(); g++ {
		for _, n := range f.Replicas(core.PGID(g)) {
			total += n.Reads()
		}
	}
	return total
}

// TestGrowUnderChaos grows the volume in the middle of a concurrent write/
// read workload with one gray-slow storage node. Invariants: zero failed
// commits, a monotone VDL, every write readable afterwards, and no read
// ever observing a stale-geometry page (the retry loop absorbs epoch
// nacks). Run with -race.
func TestGrowUnderChaos(t *testing.T) {
	f, c := testVolume(t, 2)

	// One replica of PG 0 turns gray: alive, acking, but slow.
	slow := f.Node(0, 1).NodeID()
	if err := f.Net().SetNodeDelay(slow, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer f.Net().SetNodeDelay(slow, 0)

	const (
		workers = 4
		pages   = 64
	)
	var (
		stop     atomic.Bool
		writes   atomic.Uint64
		writeErr atomic.Value
		wg       sync.WaitGroup
		newestMu sync.Mutex
		newest   [pages]struct { // per page: the acked write with the highest LSN
			cpl core.LSN
			v   uint64
		}
	)
	worker := func(w int) {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			id := core.PageID((w*17 + i) % pages)
			v := writes.Add(1)
			m := &core.MTR{Txn: uint64(w + 1)}
			m.AddDelta(c.PGOf(id), id, 0, []byte(fmt.Sprintf("%012d", v)))
			cpl, err := c.WriteMTR(context.Background(), m)
			if err != nil {
				writeErr.Store(err)
				return
			}
			// Workers race on pages, and a value drawn earlier can be framed
			// later (commits queue behind the geometry fence), so the page's
			// final content is the write with the highest LSN, not the
			// highest value.
			newestMu.Lock()
			if cpl > newest[id].cpl {
				newest[id].cpl, newest[id].v = cpl, v
			}
			newestMu.Unlock()
			if i%7 == 0 {
				if _, _, err := c.ReadPage(context.Background(), id); err != nil {
					writeErr.Store(fmt.Errorf("read during grow: %w", err))
					return
				}
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go worker(w)
	}

	// VDL monotonicity watcher.
	var vdlViolation atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := c.VDL()
		for !stop.Load() {
			v := c.VDL()
			if v < last {
				vdlViolation.Store(true)
				return
			}
			last = v
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(5 * time.Millisecond) // let the workload warm up
	rep, err := c.Grow(2)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // workload continues on the new geometry
	stop.Store(true)
	wg.Wait()

	if e := writeErr.Load(); e != nil {
		t.Fatalf("workload error during grow: %v", e)
	}
	if vdlViolation.Load() {
		t.Fatal("VDL went backwards during grow")
	}
	if f.PGs() != 4 || rep.StripesMoved == 0 {
		t.Fatalf("grow incomplete: pgs=%d rep=%+v", f.PGs(), rep)
	}
	s := c.Stats()
	if s.WriteFailures != 0 {
		t.Fatalf("%d failed commits during grow", s.WriteFailures)
	}
	// Every page reads back exactly its last write in LSN order — nothing
	// was lost or resurrected across the cutovers.
	for id := 0; id < pages; id++ {
		want := newest[id].v
		if want == 0 {
			continue
		}
		p, _, err := c.ReadPage(context.Background(), core.PageID(id))
		if err != nil {
			t.Fatalf("page %d after chaos grow: %v", id, err)
		}
		var got uint64
		if _, err := fmt.Sscanf(string(p.Payload()[:12]), "%d", &got); err != nil {
			t.Fatalf("page %d payload %q", id, p.Payload()[:12])
		}
		if got != want {
			t.Fatalf("page %d: read %d, last write in LSN order %d", id, got, want)
		}
	}
}

// TestGrowRejectsConcurrentGrowth: only one growth at a time.
func TestGrowRejectsConcurrentGrowth(t *testing.T) {
	_, c := testVolume(t, 1)
	if !c.growing.CompareAndSwap(false, true) {
		t.Fatal("fresh client claims growth in progress")
	}
	if _, err := c.Grow(1); !errors.Is(err, ErrGrowthInProgress) {
		t.Fatalf("concurrent grow: %v", err)
	}
	c.growing.Store(false)
	if _, err := c.Grow(0); err == nil {
		t.Fatal("grow by zero accepted")
	}
}

// TestGrowPersistsGeometryForRestore: grow, write, back up, then restore at
// a point after the growth — the restored volume must provision the grown
// PG count, route with the grown geometry, and serve the data. A restore
// point before the growth yields the original geometry.
func TestGrowPersistsGeometryForRestore(t *testing.T) {
	f, c, store, setClock := pitrStack(t)
	const pages = 80
	for i := 0; i < pages; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("g%03d", i))
	}
	setClock(time.Unix(2000, 0))
	backupAll(t, f)

	// Grow at t=3000; the manifest versions carry the cutover epochs.
	setClock(time.Unix(3000, 0))
	if _, err := c.Grow(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("G%03d", i))
	}
	setClock(time.Unix(4000, 0))
	backupAll(t, f)

	// Restore after the growth: grown geometry, grown data.
	net2 := netsim.New(netsim.FastLocal())
	restored, rrep, err := RestoreFleet(FleetConfig{
		Name: "pitr", Geometry: core.UniformGeometry(2), Net: net2,
		Disk: disk.FastLocal(), Store: store,
	}, time.Unix(4500, 0))
	if err != nil {
		t.Fatal(err)
	}
	if restored.PGs() != 4 || rrep.PGs != 4 {
		t.Fatalf("restored volume has %d PGs (report %d), want 4", restored.PGs(), rrep.PGs)
	}
	if rrep.GeometryEpoch != f.Geometry().Epoch() {
		t.Fatalf("restored geometry epoch %d, source %d", rrep.GeometryEpoch, f.Geometry().Epoch())
	}
	c2, _, err := Recover(context.Background(), restored, ClientConfig{WriterNode: "rw", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < pages; i++ {
		p, _, err := c2.ReadPage(context.Background(), core.PageID(i))
		if err != nil {
			t.Fatalf("restored page %d: %v", i, err)
		}
		want := fmt.Sprintf("G%03d", i)
		if got := string(p.Payload()[:len(want)]); got != want {
			t.Fatalf("restored page %d: %q, want %q", i, got, want)
		}
	}

	// Restore before the growth: the original 2-PG geometry and v1 data.
	net3 := netsim.New(netsim.FastLocal())
	old, orep, err := RestoreFleet(FleetConfig{
		Name: "pitr", Geometry: core.UniformGeometry(2), Net: net3,
		Disk: disk.FastLocal(), Store: store,
	}, time.Unix(2500, 0))
	if err != nil {
		t.Fatal(err)
	}
	if old.PGs() != 2 || orep.PGs != 2 {
		t.Fatalf("pre-grow restore has %d PGs, want 2", old.PGs())
	}
	c3, _, err := Recover(context.Background(), old, ClientConfig{WriterNode: "ow", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	p, _, err := c3.ReadPage(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "g005" {
		t.Fatalf("pre-grow restore page 5: %q", got)
	}
}

// TestGrowSnapshotReadsRouteOldPG: a read point registered before a
// cutover keeps routing to the stripe's old PG via the geometry history.
func TestGrowSnapshotReadsRouteOldPG(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 3, "before")
	snap, release := c.RegisterReadPoint()
	defer release()

	if _, err := c.Grow(1); err != nil {
		t.Fatal(err)
	}
	writePage(t, c, 3, "after!")

	// The snapshot routes with the pre-grow geometry...
	if pg := f.PGOfAt(3, snap); pg != 0 {
		t.Fatalf("snapshot read of page 3 routed to pg %d", pg)
	}
	// ...and still sees the old content.
	p, err := c.ReadPageAt(context.Background(), 3, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:6]); got != "before" {
		t.Fatalf("snapshot read after cutover: %q", got)
	}
	// A fresh read sees the new write, wherever the stripe lives now.
	p, _, err = c.ReadPage(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:6]); got != "after!" {
		t.Fatalf("current read after cutover: %q", got)
	}
}

// TestGrowDrainsStragglersBeforeEpochPublish pins the fence's drain. A write
// quorum is four of six: when the VDL covers a batch, its other two
// deliveries can still be queued or on the wire. If a geometry epoch is
// published then, those stragglers reach nodes that already know the new
// epoch, are nacked ErrStaleGeometry (never retried) and leave holes that
// only gossip fills — and this fleet runs none. The drain therefore also
// waits until every sender pipeline is idle. With replica 5 of every PG
// slow, each write leaves such a straggler behind; after two growths no
// replica may have a gap or trail its PG's durable tail.
func TestGrowDrainsStragglersBeforeEpochPublish(t *testing.T) {
	f, c := testVolume(t, 2)
	if _, err := c.Grow(1); err != nil { // leave the unversioned epoch 0
		t.Fatal(err)
	}
	slowLast := func() {
		for pg := 0; pg < f.PGs(); pg++ {
			if err := f.Net().SetNodeDelay(f.Node(core.PGID(pg), 5).NodeID(), 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	slowLast()
	for i := 0; i < 16; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("a%02d", i))
	}
	if _, err := c.Grow(1); err != nil {
		t.Fatal(err)
	}
	slowLast() // the new PG's replica too
	for i := 0; i < 16; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("b%02d", i))
	}
	// The last writes' stragglers are still in flight; a hole left by a
	// nacked one never closes, so poll with a deadline.
	lagging := func() string {
		for pg := 0; pg < f.PGs(); pg++ {
			tail := c.DurableTail(core.PGID(pg))
			for i, n := range f.Replicas(core.PGID(pg)) {
				if n.HasGaps() || n.SCL() < tail {
					return fmt.Sprintf("pg%d replica %d: scl=%d hi=%d gaps=%v tail=%d",
						pg, i, n.SCL(), n.HighestLSN(), n.HasGaps(), tail)
				}
			}
		}
		return ""
	}
	deadline := time.Now().Add(2 * time.Second)
	for lagging() != "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if l := lagging(); l != "" {
		t.Fatal(l)
	}
}
