package volume

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/quorum"
)

func testVolume(t *testing.T, pgs int) (*Fleet, *Client) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{Name: "t", Geometry: core.UniformGeometry(pgs), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	t.Cleanup(c.Close)
	return f, c
}

// writeKV writes one MTR putting data at offset 0 of the page.
func writePage(t *testing.T, c *Client, id core.PageID, data string) core.LSN {
	t.Helper()
	m := &core.MTR{Txn: 1}
	m.AddDelta(c.PGOf(id), id, 0, []byte(data))
	cpl, err := c.WriteMTR(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	return cpl
}

func TestWriteAdvancesVDL(t *testing.T) {
	_, c := testVolume(t, 2)
	var last core.LSN
	for i := 0; i < 20; i++ {
		last = writePage(t, c, core.PageID(i%4), fmt.Sprintf("v%02d", i))
	}
	// All batches quorum-acked synchronously: VDL must have caught up.
	if got := c.VDL(); got != last {
		t.Fatalf("VDL %d, want %d", got, last)
	}
	c.WaitDurable(last) // already there: returns at once
	s := c.Stats()
	if s.MTRs != 20 || s.RecordsWritten != 20 || s.Backlog != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestVDLImpliesDurableTails pins the publication order of a quorum's
// resolution: the per-PG durable tails advance before the VDL does, so any
// reader that observes VDL >= cpl for an acked (pg, cpl) already sees
// DurableTail(pg) >= cpl. Published the other way round, a read at a
// just-acked CPL computes its completeness demand from a stale tail and a
// lagging replica serves the previous version (the TestSplitStaleReadConcurrent
// flake). Writers on two PGs ack concurrently — one writer's VDL advance is
// what covers the other's CPL — while each writer and a polling checker
// assert the implication.
func TestVDLImpliesDurableTails(t *testing.T) {
	f, c := testVolume(t, 2)
	const writers, rounds = 4, 150
	var (
		mu    sync.Mutex
		acked = make([][]core.LSN, f.PGs()) // acked CPLs per PG
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		errs  = make(chan error, writers+1)
	)
	check := func(pg core.PGID, cpl core.LSN) error {
		if tail := c.DurableTail(pg); tail < cpl {
			return fmt.Errorf("VDL %d covers acked cpl %d of pg %d but DurableTail is %d", c.VDL(), cpl, pg, tail)
		}
		return nil
	}
	checkerDone := make(chan struct{})
	go func() {
		defer close(checkerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			vdl := c.VDL() // read the VDL first: the tails must already cover it
			for pg := range acked {
				var want core.LSN
				mu.Lock()
				for _, cpl := range acked[pg] {
					if cpl <= vdl && cpl > want {
						want = cpl
					}
				}
				mu.Unlock()
				if err := check(core.PGID(pg), want); err != nil {
					errs <- err
					return
				}
			}
			runtime.Gosched()
		}
	}()
	pgsHit := make(map[core.PGID]bool)
	for w := 0; w < writers; w++ {
		id := core.PageID(w)
		pgsHit[c.PGOf(id)] = true
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pg := c.PGOf(id)
			for i := 0; i < rounds; i++ {
				m := &core.MTR{Txn: uint64(w*rounds + i + 1)}
				m.AddDelta(pg, id, 0, []byte{byte(i)})
				cpl, err := c.WriteMTR(context.Background(), m)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				acked[pg] = append(acked[pg], cpl)
				mu.Unlock()
				for c.VDL() < cpl {
					runtime.Gosched()
				}
				if err := check(pg, cpl); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	if len(pgsHit) < 2 {
		t.Fatalf("writers cover %d PGs, want >= 2", len(pgsHit))
	}
	wg.Wait()
	close(stop)
	<-checkerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWriteReachesQuorumReplicas(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 0, "hello")
	have := 0
	for _, n := range f.Replicas(0) {
		if n.SCL() >= 1 {
			have++
		}
	}
	if have < f.Quorum().Vw {
		t.Fatalf("record on %d replicas, want >= %d", have, f.Quorum().Vw)
	}
}

func TestReadPageLatestAndRouting(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 7, "aaaa")
	writePage(t, c, 7, "bbbb")
	p, rp, err := c.ReadPage(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "bbbb" {
		t.Fatalf("payload %q", got)
	}
	if rp != c.VDL() {
		t.Fatalf("read point %d, want VDL %d", rp, c.VDL())
	}
	// The read must have been served by a single same-AZ segment (writer
	// is in AZ 0; replicas 0 and 1 are in AZ 0).
	_, _, recv0, _, _ := f.Net().NodeStats(f.Node(0, 0).NodeID())
	_, _, recv1, _, _ := f.Net().NodeStats(f.Node(0, 1).NodeID())
	if recv0+recv1 == 0 {
		t.Fatal("read did not touch a same-AZ replica")
	}
}

func TestReadAtOlderReadPoint(t *testing.T) {
	_, c := testVolume(t, 1)
	writePage(t, c, 3, "old!")
	snap, release := c.RegisterReadPoint()
	defer release()
	writePage(t, c, 3, "new!")
	p, err := c.ReadPageAt(context.Background(), 3, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "old!" {
		t.Fatalf("snapshot read %q, want old!", got)
	}
	p, _, err = c.ReadPage(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "new!" {
		t.Fatalf("latest read %q, want new!", got)
	}
}

func TestWritesSurviveAZFailure(t *testing.T) {
	f, c := testVolume(t, 2)
	writePage(t, c, 0, "pre")
	f.Net().SetAZDown(2, true)
	defer f.Net().SetAZDown(2, false)
	// 4 replicas remain per PG: exactly the write quorum.
	for i := 0; i < 5; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("az%d", i))
	}
	p, _, err := c.ReadPage(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:3]); got != "az1" {
		t.Fatalf("payload %q", got)
	}
}

func TestWritesFailOnAZPlusOne(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 0, "pre")
	f.Net().SetAZDown(2, true)
	defer f.Net().SetAZDown(2, false)
	f.Node(0, 0).Crash()
	m := &core.MTR{Txn: 9}
	m.AddDelta(0, 0, 0, []byte("xx"))
	if _, err := c.WriteMTR(context.Background(), m); !errors.Is(err, quorum.ErrQuorumImpossible) {
		t.Fatalf("AZ+1 write: %v", err)
	}
	if c.Stats().WriteFailures != 1 {
		t.Fatal("write failure not counted")
	}
	// Reads survive AZ+1: three healthy replicas remain and hold the data.
	p, _, err := c.ReadPage(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:3]); got != "pre" {
		t.Fatalf("payload %q", got)
	}
}

func TestSlowNodeAbsorbedByQuorum(t *testing.T) {
	f, c := testVolume(t, 1)
	// One replica drops every message silently: the 4/6 quorum never
	// notices as long as four others ack.
	if err := f.Net().SetNodeDown(f.Node(0, 5).NodeID(), false); err != nil {
		t.Fatal(err)
	}
	f.Node(0, 5).Crash()
	for i := 0; i < 10; i++ {
		writePage(t, c, 0, fmt.Sprintf("w%d", i))
	}
	if c.VDL() == 0 {
		t.Fatal("VDL did not advance with one crashed replica")
	}
	// The crashed node recovers and catches up via gossip, not the writer.
	f.Node(0, 5).Restart()
	if n := f.Node(0, 5).GossipOnce(); n == 0 {
		t.Fatal("gossip pulled nothing")
	}
	if got := f.Node(0, 5).SCL(); got != c.VDL() {
		t.Fatalf("lagging replica SCL %d, want %d", got, c.VDL())
	}
}

func TestLALBackpressure(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{Name: "bp", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0, LAL: 8})
	defer c.Close()
	// Stall the fleet: every replica down, so no write ever acks and the
	// VDL stays at zero. Writes consume the 8-LSN window and then block.
	for _, n := range f.Replicas(0) {
		n.Crash()
	}
	for i := 0; i < 8; i++ {
		m := &core.MTR{Txn: 1}
		m.AddDelta(0, 0, 0, []byte("x"))
		if _, err := c.WriteMTR(context.Background(), m); err == nil {
			t.Fatal("write succeeded with fleet down")
		}
	}
	blocked := make(chan struct{})
	go func() {
		m := &core.MTR{Txn: 2}
		m.AddDelta(0, 0, 0, []byte("y"))
		c.WriteMTR(context.Background(), m) //nolint:errcheck — released by Close below
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("ninth write was not throttled by the LAL")
	case <-time.After(50 * time.Millisecond):
	}
	c.Close() // releases the blocked allocator
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("blocked writer not released on close")
	}
}

func TestLowWaterMarkMonotoneAndReadHeld(t *testing.T) {
	_, c := testVolume(t, 1)
	writePage(t, c, 0, "a")
	snap, release := c.RegisterReadPoint()
	for i := 0; i < 5; i++ {
		writePage(t, c, 0, "b")
	}
	if lwm := c.LowWaterMark(); lwm != snap {
		t.Fatalf("LWM %d, want held at %d", lwm, snap)
	}
	release()
	if lwm := c.LowWaterMark(); lwm != c.VDL() {
		t.Fatalf("LWM %d after release, want VDL %d", lwm, c.VDL())
	}
	// Monotonic even if VDL were to appear lower (cannot happen, but the
	// floor guards it).
	if lwm := c.LowWaterMark(); lwm < snap {
		t.Fatal("LWM regressed")
	}
}

func TestRecoveryCleanShutdown(t *testing.T) {
	f, c := testVolume(t, 2)
	var last core.LSN
	for i := 0; i < 30; i++ {
		last = writePage(t, c, core.PageID(i%5), fmt.Sprintf("r%02d", i))
	}
	c.Crash()
	c2, rep, err := Recover(context.Background(), f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rep.VDL != last {
		t.Fatalf("recovered VDL %d, want %d", rep.VDL, last)
	}
	if rep.VCL < rep.VDL {
		t.Fatalf("VCL %d below VDL %d", rep.VCL, rep.VDL)
	}
	if rep.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", rep.Epoch)
	}
	// All data readable through the new writer.
	for i := 0; i < 5; i++ {
		p, _, err := c2.ReadPage(context.Background(), core.PageID(i))
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := fmt.Sprintf("r%02d", 25+i)
		if got := string(p.Payload()[:3]); got != want[:3] {
			t.Fatalf("page %d payload %q, want %q", i, got, want)
		}
	}
	// And new writes continue above the recovered bound.
	cpl := writePage(t, c2, 1, "post-recovery")
	if cpl <= rep.UpperBound {
		t.Fatalf("new LSN %d not above recovery bound %d", cpl, rep.UpperBound)
	}
}

func TestRecoveryAdmitsUnackedButRecoverableTail(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 0, "solid")
	// Crash three replicas: the next write persists on the three healthy
	// nodes but cannot reach the 4/6 quorum, so the client reports failure
	// and the VDL stays behind.
	f.Node(0, 3).Crash()
	f.Node(0, 4).Crash()
	f.Node(0, 5).Crash()
	m := &core.MTR{Txn: 5}
	m.AddDelta(0, 0, 0, []byte("maybe"))
	if _, err := c.WriteMTR(context.Background(), m); err == nil {
		t.Fatal("write should have failed quorum")
	}
	// The quorum failure resolves as soon as three crashed replicas nack;
	// wait for the delivery pipelines to land the record on the healthy
	// three before killing the writer.
	deadline := time.Now().Add(2 * time.Second)
	for f.Node(0, 0).SCL() < 2 || f.Node(0, 1).SCL() < 2 || f.Node(0, 2).SCL() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("record never landed on healthy replicas")
		}
		time.Sleep(time.Millisecond)
	}
	c.Crash()
	// The crashed replicas return; recovery finds the record on a read
	// quorum intersection, its chain is complete, so it becomes durable.
	f.Node(0, 3).Restart()
	f.Node(0, 4).Restart()
	f.Node(0, 5).Restart()
	c2, rep, err := Recover(context.Background(), f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rep.VDL != 2 {
		t.Fatalf("recovered VDL %d, want 2 (unacked but recoverable)", rep.VDL)
	}
	p, _, err := c2.ReadPage(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:5]); got != "maybe" {
		t.Fatalf("payload %q", got)
	}
}

func TestRecoveryTruncatesDanglingTail(t *testing.T) {
	f, c := testVolume(t, 1)
	last := writePage(t, c, 0, "good")
	c.Crash()
	// Inject a record whose predecessor was lost forever: LSN 5 backlinked
	// to a phantom LSN 3 that no replica holds.
	orphan := core.Record{
		LSN: 5, PrevLSN: 3, Type: core.RecPageDelta, PG: 0, Page: 0, Data: []byte("orphan"),
	}
	if _, err := nodeIngest(t, f.Node(0, 0), 0, orphan); err != nil {
		t.Fatal(err)
	}
	c2, rep, err := Recover(context.Background(), f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rep.VCL != last {
		t.Fatalf("VCL %d, want %d (dangling record must cap it)", rep.VCL, last)
	}
	if rep.VDL != last {
		t.Fatalf("VDL %d, want %d", rep.VDL, last)
	}
	// The orphan is annulled everywhere it landed.
	if got := f.Node(0, 0).HighestLSN(); got > last {
		t.Fatalf("orphan survived truncation: highest %d", got)
	}
	p, _, err := c2.ReadPage(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "good" {
		t.Fatalf("payload %q", got)
	}
}

func TestRecoveryFailsWithoutReadQuorum(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 0, "x")
	c.Crash()
	for i := 0; i < 4; i++ {
		f.Node(0, i).Crash()
	}
	if _, _, err := Recover(context.Background(), f, ClientConfig{WriterNode: "w2", WriterAZ: 0}); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("recovery with 2/6 reachable: %v", err)
	}
}

func TestRecoveryEpochsIncrease(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 0, "a")
	c.Crash()
	c2, rep2, err := Recover(context.Background(), f, ClientConfig{WriterNode: "w2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	writePage(t, c2, 0, "b")
	c2.Crash()
	c3, rep3, err := Recover(context.Background(), f, ClientConfig{WriterNode: "w3", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if rep3.Epoch <= rep2.Epoch {
		t.Fatalf("epochs %d then %d, want increasing", rep2.Epoch, rep3.Epoch)
	}
	p, _, err := c3.ReadPage(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Payload()[0]; got != 'b' {
		t.Fatalf("payload %c", got)
	}
}

// TestRecoverUnmovedByCPLTrim: coalescing trims every node's CPL index below
// its GC tail and keeps the highest CPL at or below it. Recovery asks only
// for the highest CPL at or below the VCL it computes, which never lies below
// a GC tail (VCL ≥ VDL ≥ PGMRPL ≥ GC tail), so it lands on the same VCL and
// VDL after the trim as before it.
func TestRecoverUnmovedByCPLTrim(t *testing.T) {
	ctx := context.Background()
	f, c := testVolume(t, 2)
	for i := 0; i < 30; i++ {
		writePage(t, c, core.PageID(i%5), fmt.Sprintf("r%02d", i))
	}
	c.Crash()
	c2, before, err := Recover(ctx, f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	c2.Crash()
	// Every record is durable: let every node fold and collect its whole log
	// up to the VDL, the most a trim can take. Each MTR is one record, so every
	// record is a CPL and the one below a node's GC tail is there to lose.
	for g := 0; g < f.PGs(); g++ {
		for r, n := range f.Replicas(core.PGID(g)) {
			if _, _, err := n.Ingest(ctx, nil, before.VDL, before.VDL, nil); err != nil {
				t.Fatal(err)
			}
			tail := n.SCL()
			if n.HighestCPLAtOrBelow(tail-1) == 0 {
				t.Fatalf("setup: pg %d replica %d has no CPL below its tail %d", g, r, tail)
			}
			n.CoalesceOnce()
			if n.GCTail() != tail || n.HighestCPLAtOrBelow(tail) != tail {
				t.Fatalf("pg %d replica %d: GC tail %d, CPL floor %d, want both at %d", g, r, n.GCTail(), n.HighestCPLAtOrBelow(tail), tail)
			}
			if low := n.HighestCPLAtOrBelow(tail - 1); low != 0 {
				t.Fatalf("pg %d replica %d: CPL %d below the GC tail %d outlived the trim", g, r, low, tail)
			}
		}
	}
	c3, after, err := Recover(ctx, f, ClientConfig{WriterNode: "writer3", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if after.VCL != before.VCL || after.VDL != before.VDL {
		t.Fatalf("after the trim recovery found VCL %d, VDL %d; before it %d, %d", after.VCL, after.VDL, before.VCL, before.VDL)
	}
	for i := 0; i < 5; i++ {
		p, _, err := c3.ReadPage(ctx, core.PageID(i))
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if got, want := string(p.Payload()[:3]), fmt.Sprintf("r%02d", 25+i); got != want {
			t.Fatalf("page %d payload %q, want %q", i, got, want)
		}
	}
}

func TestRepairSegmentAfterWipe(t *testing.T) {
	f, c := testVolume(t, 1)
	for i := 0; i < 6; i++ {
		writePage(t, c, 0, fmt.Sprintf("d%d", i))
	}
	f.Node(0, 2).Wipe()
	if err := f.RepairSegment(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := f.Node(0, 2).SCL(); got != c.VDL() {
		t.Fatalf("repaired SCL %d, want %d", got, c.VDL())
	}
	// Repair with every peer down fails.
	f.Node(0, 2).Wipe()
	for i := 0; i < 6; i++ {
		if i != 2 {
			f.Node(0, i).Crash()
		}
	}
	if err := f.RepairSegment(0, 2); !errors.Is(err, ErrNoHealthyPeer) {
		t.Fatalf("repair without peers: %v", err)
	}
}

func TestPGStriping(t *testing.T) {
	f, _ := testVolume(t, 4)
	counts := make(map[core.PGID]int)
	for i := 0; i < 100; i++ {
		counts[f.PGOf(core.PageID(i))]++
	}
	for pg := core.PGID(0); pg < 4; pg++ {
		if counts[pg] != 25 {
			t.Fatalf("pg %d got %d pages, want 25", pg, counts[pg])
		}
	}
}

func TestFleetValidation(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	if _, err := NewFleet(FleetConfig{Geometry: core.UniformGeometry(0), Net: net}); err == nil {
		t.Fatal("zero PGs accepted")
	}
	if _, err := NewFleet(FleetConfig{Geometry: core.UniformGeometry(1)}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewFleet(FleetConfig{Geometry: core.UniformGeometry(1), Net: net, Quorum: quorum.Config{V: 3, Vw: 1, Vr: 1}}); err == nil {
		t.Fatal("invalid quorum accepted")
	}
}

func TestClosedClientRejectsOps(t *testing.T) {
	_, c := testVolume(t, 1)
	writePage(t, c, 0, "x")
	c.Close()
	m := &core.MTR{Txn: 1}
	m.AddDelta(0, 0, 0, []byte("y"))
	if _, err := c.WriteMTR(context.Background(), m); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on closed client: %v", err)
	}
	if _, _, err := c.ReadPage(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on closed client: %v", err)
	}
	c.Close() // idempotent
}
