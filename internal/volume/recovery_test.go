package volume

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/storage"
)

// TestRecoveryPoint holds recovery's arithmetic to hand-built replica views:
// no cluster, no clock. Each row lists the views of every reachable replica
// of every PG; LSNs 1, 2, ... are the volume's records in framing order.
func TestRecoveryPoint(t *testing.T) {
	type L = []core.LSN
	type V = storage.RecoveryView
	first := core.TruncationRange{Epoch: 1, From: 5, To: 21} // a recovery at VDL 5, LAL 16
	for _, tc := range []struct {
		name     string
		views    []V
		vcl, vdl core.LSN
		latest   core.TruncationRange
	}{
		{
			name: "clean chains",
			views: []V{
				{Held: L{1, 2, 5}, CPLs: L{2, 5}}, {Held: L{1, 2, 5}, CPLs: L{2, 5}}, {Held: L{1, 2}, CPLs: L{2}},
				{Held: L{3, 4}, CPLs: L{4}}, {Held: L{3, 4}, CPLs: L{4}},
			},
			vcl: 5, vdl: 5,
		},
		{
			// LSN 4 (PG1) is on no replica: it never reached a write quorum,
			// so nothing framed after it was acknowledged.
			name: "a hole caps the VCL just below it",
			views: []V{
				{Held: L{1, 3, 5, 6, 7}, CPLs: L{3, 7}},
				{Held: L{2, 8, 9}, CPLs: L{9}},
			},
			vcl: 3, vdl: 3,
		},
		{
			// PG0 lost LSN 10, above everything PG1 holds: it caps the VCL at 9.
			name: "a hole above every other PG's SCL",
			views: []V{
				{Held: L{1, 2, 3, 5, 6, 7, 8, 9, 11, 12}, CPLs: L{9, 12}},
				{Held: L{4}, CPLs: L{4}},
			},
			vcl: 9, vdl: 9,
		},
		{
			// CPLs above the VCL (11, 12) do not count; the VDL may come
			// from any replica of any PG.
			name: "VDL is the highest CPL at or below the VCL across PGs",
			views: []V{
				{Held: L{1, 2, 5, 8, 12}, CPLs: L{5, 12}},
				{Held: L{3}, CPLs: L{3}}, {Held: L{3, 4, 6, 11}, CPLs: L{3, 6, 11}},
			},
			vcl: 6, vdl: 6,
		},
		{
			name: "no CPL at or below the VCL",
			views: []V{
				{Held: L{2, 4}, CPLs: L{4}}, {Held: L{2}},
				{Held: L{1}},
			},
			vcl: 2, vdl: 0,
		},
		{
			name:  "an empty volume",
			views: []V{{}, {}, {}, {}, {}, {}},
			vcl:   0, vdl: 0,
		},
		{name: "no protection groups", vcl: 0, vdl: 0},
		{
			// A = {pg0@1, pg1@2, pg0@3} is on every replica, B = {pg1@4} on
			// none, C = {pg1@5} on every replica. The first hole is at 4, above
			// A's CPL: A is durable, B and C are not.
			name: "a durable MTR before a hole survives",
			views: []V{
				{Held: L{1, 3}, CPLs: L{3}}, {Held: L{1, 3}, CPLs: L{3}}, {Held: L{1, 3}, CPLs: L{3}},
				{Held: L{2, 5}, CPLs: L{5}}, {Held: L{2, 5}, CPLs: L{5}}, {Held: L{2, 5}, CPLs: L{5}},
			},
			vcl: 3, vdl: 3,
		},
		{
			// The torn cross-PG MTR {pg0@1, pg1@2, pg0@3}: PG0 holds 1 and 3
			// (a clean per-PG chain, CPL 3), PG1 nothing. LSN 2 is on no disk,
			// so nothing above 1 is durable.
			name: "P0: an MTR whose middle record reached no segment",
			views: []V{
				{Held: L{1, 3}, CPLs: L{3}}, {Held: L{1, 3}, CPLs: L{3}}, {Held: L{1, 3}, CPLs: L{3}}, {Held: L{1, 3}, CPLs: L{3}},
				{}, {}, {}, {},
			},
			vcl: 1, vdl: 0,
		},
		{
			// One replica collected through 10 (everything at or below it is
			// durable); a straggler of another PG still misses 4. The walk
			// starts at the floor, so the hole below it caps nothing.
			name: "a floor above a hole",
			views: []V{
				{Floor: 10, FloorCPL: 8, Held: L{11, 12}, CPLs: L{12}},
				{Held: L{3, 5, 9}, CPLs: L{5, 9}},
			},
			vcl: 12, vdl: 12,
		},
		{
			// Recovery 1 annulled (5, 21]; the next writer framed from 22. The
			// LSNs of the range are held by no replica, and the walk jumps them.
			name: "a hole inside the truncation range",
			views: []V{
				{Floor: 5, FloorCPL: 5, Trunc: first, Held: L{22, 23, 24}, CPLs: L{23}},
				{Floor: 5, FloorCPL: 5, Trunc: first, Held: L{22, 23}, CPLs: L{23}},
			},
			vcl: 24, vdl: 23, latest: first,
		},
		{
			// Writer 2 made nothing durable. Recovery 2 finds recovery 1's VDL
			// again; the range it returns is what bounds writer 2's LSNs.
			name: "two recoveries back to back",
			views: []V{
				{Floor: 5, FloorCPL: 5, Trunc: first},
				{Floor: 5, FloorCPL: 5, Trunc: first, Held: L{22}},
				{Floor: 5, FloorCPL: 5, Trunc: first},
			},
			vcl: 22, vdl: 5, latest: first,
		},
		{
			// A replica that missed recovery 1's truncation still holds the
			// annulled 6 and 7; CPL 7 must not become the VDL.
			name: "an annulled CPL on a replica that missed the latest truncation",
			views: []V{
				{Held: L{1, 2, 3, 4, 5, 6, 7}, CPLs: L{5, 7}},
				{Floor: 5, FloorCPL: 5, Trunc: first, Held: L{22}},
				{Floor: 5, FloorCPL: 5, Trunc: first},
			},
			vcl: 22, vdl: 5, latest: first,
		},
		{
			// A replica that missed recovery 1's truncation collected the
			// annulled 6 and 7 under its floor; its floor's CPL must not
			// become the VDL either.
			name: "an annulled floor CPL on a replica that missed the latest truncation",
			views: []V{
				{Floor: 7, FloorCPL: 7},
				{Floor: 5, FloorCPL: 5, Trunc: first, Held: L{22}},
				{Floor: 5, FloorCPL: 5, Trunc: first},
			},
			vcl: 22, vdl: 5, latest: first,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vcl, vdl, latest := recoveryPoint(tc.views)
			if vcl != tc.vcl || vdl != tc.vdl || latest != tc.latest {
				t.Fatalf("recoveryPoint = VCL %d, VDL %d, latest %+v; want VCL %d, VDL %d, latest %+v",
					vcl, vdl, latest, tc.vcl, tc.vdl, tc.latest)
			}
		})
	}
}

// heldFleet drives a live fleet into the histories the recovery rows name:
// one page per PG, MTRs of one-byte deltas, and flights held in the network.
type heldFleet struct {
	t    *testing.T
	f    *Fleet
	c    *Client
	page []core.PageID
	// inAir receives once per flight parked by hold; the flights stay parked
	// until the test ends.
	inAir chan struct{}
}

func newHeldFleet(t *testing.T, pgs int) *heldFleet {
	f, c := testVolume(t, pgs)
	h := &heldFleet{t: t, f: f, c: c, page: make([]core.PageID, pgs), inAir: make(chan struct{}, 6*pgs)}
	for id, found := core.PageID(0), 0; found < 1<<pgs-1; id++ {
		if g := c.PGOf(id); found&(1<<g) == 0 {
			h.page[g] = id
			found |= 1 << g
		}
	}
	release := make(chan struct{})
	t.Cleanup(sync.OnceFunc(func() { close(release) }))
	f.Net().SetSleeper(func(d time.Duration) {
		if d >= holdDelay {
			h.inAir <- struct{}{}
			<-release
		}
	})
	return h
}

// holdDelay marks a flight for parking: no simulated hop is this slow.
const holdDelay = time.Hour

// mtr is one MTR of a one-byte delta per listed PG, in order.
func (h *heldFleet) mtr(txn uint64, pgs ...core.PGID) *core.MTR {
	m := &core.MTR{Txn: txn}
	for _, g := range pgs {
		m.AddDelta(g, h.page[g], 0, []byte{byte(txn)})
	}
	return m
}

// hold parks every flight to pg's replicas from now on (on) or stops parking
// new ones (off); parked flights stay parked.
func (h *heldFleet) hold(pg core.PGID, on bool) {
	d := time.Duration(0)
	if on {
		d = holdDelay
	}
	for _, n := range h.f.Replicas(pg) {
		if err := h.f.Net().SetNodeDelay(n.NodeID(), d); err != nil {
			h.t.Fatal(err)
		}
	}
}

// ship frames m alone and ships it without waiting, checking its CPL.
func (h *heldFleet) ship(m *core.MTR, cpl core.LSN) {
	g, err := h.c.FrameMTRs(context.Background(), []*core.MTR{m})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(g.Release)
	if g.MaxCPL() != cpl {
		h.t.Fatalf("framed at %d, want %d", g.MaxCPL(), cpl)
	}
	g.ShipAsync(nil, func(error) {})
}

// holding reports whether at least k replicas of pg hold lsn.
func (h *heldFleet) holding(pg core.PGID, lsn core.LSN, k int) func() bool {
	return func() bool {
		for _, n := range h.f.Replicas(pg) {
			if n.HighestLSN() >= lsn {
				k--
			}
		}
		return k <= 0
	}
}

// eventually waits up to five seconds for ok.
func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// TestRecoverKeepsDurableMTRBeforeAHole is the sweep's losing class on a live
// fleet. A = {pg0@1, pg1@2, pg0@3} reaches every replica and is
// acknowledged. B = {pg1@4} has its six flights held in the network while
// C = {pg1@5} lands on all six PG1 replicas (a later flight may land first).
// The writer crashes with B still in the air, so LSN 4 is on no disk: the
// VCL is 3, and A survives.
func TestRecoverKeepsDurableMTRBeforeAHole(t *testing.T) {
	h := newHeldFleet(t, 2)
	ctx := context.Background()
	cplA, err := h.c.WriteMTR(ctx, h.mtr(1, 0, 1, 0))
	if err != nil || cplA != 3 {
		t.Fatalf("A: CPL %d, %v; want 3", cplA, err)
	}
	eventually(t, "A on every replica", func() bool { return h.holding(0, 3, 6)() && h.holding(1, 2, 6)() })

	h.hold(1, true)
	h.ship(h.mtr(2, 1), 4)
	for range h.f.Replicas(1) {
		<-h.inAir
	}
	h.hold(1, false)
	h.ship(h.mtr(3, 1), 5)
	eventually(t, "C on every PG1 replica", h.holding(1, 5, 6))
	h.c.Crash()

	c2, rep, err := Recover(ctx, h.f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rep.VDL < cplA {
		t.Fatalf("recovered VCL %d / VDL %d: the acknowledged A (CPL %d) was annulled", rep.VCL, rep.VDL, cplA)
	}
}

// TestRecoverAnnulsATornMTR is the sweep's resurrecting class on a live
// fleet. Every flight to PG1 is held, and {pg0@1, pg1@2, pg0@3} ships: PG0's
// replicas hold 1 and 3, a clean chain of their own, and LSN 2 is on no disk.
// The writer crashes; the MTR was never durable, so recovery keeps nothing.
func TestRecoverAnnulsATornMTR(t *testing.T) {
	h := newHeldFleet(t, 2)
	h.hold(1, true)
	h.ship(h.mtr(1, 0, 1, 0), 3)
	for range h.f.Replicas(1) {
		<-h.inAir
	}
	eventually(t, "LSN 3 on four PG0 replicas", h.holding(0, 3, 4))
	h.hold(1, false)
	h.c.Crash()

	c2, rep, err := Recover(context.Background(), h.f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rep.VCL != 1 || rep.VDL != 0 {
		t.Fatalf("recovered VCL %d / VDL %d, tails %v; want VCL 1, VDL 0: the torn MTR survived", rep.VCL, rep.VDL, rep.Tails)
	}
}

// TestBackToBackRecoveriesNeverReuseAnLSN: writer 2 starts above recovery 1's
// range (VDL 1, LAL 16: it frames from 18) and makes nothing durable — its
// "STAL" at 18 reaches replica 0 alone. Replica 0 then misses recovery 2,
// which finds VDL 1 again. Writer 3 must still start above every LSN writer 2
// could have allocated: were its first record 18 again, the restarted replica
// 0, which already holds an 18, would serve "STAL" at that read point.
func TestBackToBackRecoveriesNeverReuseAnLSN(t *testing.T) {
	const lal = 16
	ctx := context.Background()
	f, c1 := testVolume(t, 1)
	net := f.Net()
	writePage(t, c1, 0, "GOOD")
	c1.Crash()
	recoverAs := func(w netsim.NodeID) *Client {
		c, _, err := Recover(ctx, f, ClientConfig{WriterNode: w, WriterAZ: 0, LAL: lal})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	c2 := recoverAs("writer2")
	for _, n := range f.Replicas(0)[1:] {
		net.SetLinkDropProb("writer2", n.NodeID(), 1)
	}
	m := &core.MTR{Txn: 2}
	m.AddDelta(0, 0, 0, []byte("STAL"))
	g, err := c2.FrameMTRs(ctx, []*core.MTR{m})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	stale := g.MaxCPL()
	g.ShipAsync(nil, func(error) {})
	replica0 := f.Node(0, 0)
	eventually(t, "the stale record on replica 0", func() bool { return replica0.HighestLSN() >= stale })
	c2.Crash()

	replica0.Crash()
	c3 := recoverAs("writer3")
	replica0.Restart()
	lsn := writePage(t, c3, 0, "NEW!")
	if p, err := replica0.ReadPage(ctx, 0, lsn, lsn); err == nil && string(p.Payload()[:4]) != "NEW!" {
		t.Fatalf("replica 0 serves %q at read point %d, want NEW! or a refusal", p.Payload()[:4], lsn)
	}
	if lsn <= stale {
		t.Fatalf("writer 3 framed at %d, at or below writer 2's %d", lsn, stale)
	}
	p, _, err := c3.ReadPage(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "NEW!" {
		t.Fatalf("writer 3 reads %q, want NEW!", got)
	}
}

// TestRecoverAfterGrowthKeepsWrites: two recoveries with writes between them
// leave two truncation ranges, and every replica names only the second. A
// grow then adds a PG whose replicas applied no truncation at all. The walk
// must still start at the second range's From: the first range is a hole no
// view names, and a walk from the GC tails would stop in it and annul every
// acknowledged write above it.
func TestRecoverAfterGrowthKeepsWrites(t *testing.T) {
	ctx := context.Background()
	f, c := testVolume(t, 1)
	var last core.LSN
	for w := 2; w <= 4; w++ {
		for i := 0; i < 3; i++ {
			last = writePage(t, c, core.PageID(i), fmt.Sprintf("w%d-%d", w, i))
		}
		if w == 4 {
			if _, err := c.Grow(1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				last = writePage(t, c, core.PageID(i), fmt.Sprintf("g%02d", i))
			}
		}
		c.Crash()
		var rep *RecoveryReport
		var err error
		if c, rep, err = Recover(ctx, f, ClientConfig{WriterNode: netsim.NodeID(fmt.Sprintf("writer%d", w)), WriterAZ: 0}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if rep.VDL != last {
			t.Fatalf("recovery %d: VDL %d, want the last acknowledged write at %d", w-1, rep.VDL, last)
		}
	}
}

// history is one small volume history for the recovery sweep: records at
// LSNs 1..len(pg), record i in protection group pg[i], closing its MTR when
// cpl[i], and held by its PG's reachable replicas (which agree after
// SyncGroup) when held[i].
type history struct {
	pgs       int
	pg        []int
	cpl, held []bool
}

// views is what recovery's I/O half would learn of h: per PG, three
// replicas that each hold the PG's held records.
func (h history) views() []storage.RecoveryView {
	out := make([]storage.RecoveryView, h.pgs)
	for i, g := range h.pg {
		if lsn := core.LSN(i + 1); h.held[i] {
			out[g].Held = append(out[g].Held, lsn)
			if h.cpl[i] {
				out[g].CPLs = append(out[g].CPLs, lsn)
			}
		}
	}
	return slices.Concat(out, out, out)
}

// oracle is what recovery must return, knowing the whole history: the VCL
// sits just below the first LSN no replica holds, the VDL is the highest CPL
// at or below it.
func (h history) oracle() (vcl, vdl core.LSN) {
	vcl = core.LSN(len(h.pg))
	for i, held := range h.held {
		if !held {
			vcl = core.LSN(i)
			break
		}
	}
	for i := 0; i < int(vcl); i++ {
		if h.cpl[i] {
			vdl = core.LSN(i + 1)
		}
	}
	return vcl, vdl
}

func (h history) String() string {
	var b strings.Builder
	for i, g := range h.pg {
		held := ""
		if !h.held[i] {
			held = " (on no disk)"
		}
		fmt.Fprintf(&b, "pg%d@%d%s", g, i+1, held)
		if h.cpl[i] {
			b.WriteString(" | ")
		} else {
			b.WriteString(", ")
		}
	}
	return b.String()
}

// eachHistory calls fn with every history of n records over pgs PGs: every
// split into MTRs of up to three records, every PG per record, every set of
// held records. fn must not keep h.
func eachHistory(pgs, n int, fn func(h history)) {
	h := history{pgs: pgs, pg: make([]int, n), cpl: make([]bool, n), held: make([]bool, n)}
	for split := 0; split < 1<<(n-1); split++ {
		run, ok := 0, true
		for i := 0; i < n; i++ {
			h.cpl[i] = i == n-1 || split&(1<<i) != 0
			if run++; run > 3 {
				ok = false
			}
			if h.cpl[i] {
				run = 0
			}
		}
		if !ok {
			continue
		}
		for place := 0; place < pow(pgs, n); place++ {
			for i, p := 0, place; i < n; i, p = i+1, p/pgs {
				h.pg[i] = p % pgs
			}
			for held := 0; held < 1<<n; held++ {
				for i := 0; i < n; i++ {
					h.held[i] = held&(1<<i) != 0
				}
				fn(h)
			}
		}
	}
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}

// TestRecoveryPointSweep holds recoveryPoint to the oracle on every history
// of up to five records over two and three PGs, and counts the two classes
// the per-PG arithmetic it replaced got wrong:
//   - resurrects: recoveryPoint's VCL is above the oracle's. A record on no
//     disk that was its PG's last leaves no hole in any PG's chain.
//   - loses: recoveryPoint's VDL is below the oracle's. A PG whose chain has
//     a hole above MTRs other PGs completed before it.
//
// Both classes must be empty, and every other history must agree on the VCL
// and the VDL.
func TestRecoveryPointSweep(t *testing.T) {
	var histories, resurrects, loses int
	for pgs := 2; pgs <= 3; pgs++ {
		for n := 1; n <= 5; n++ {
			eachHistory(pgs, n, func(h history) {
				histories++
				vcl, vdl, _ := recoveryPoint(h.views())
				ovcl, ovdl := h.oracle()
				switch {
				case vcl > ovcl:
					resurrects++
				case vdl < ovdl:
					loses++
				}
				if vcl != ovcl || vdl != ovdl {
					t.Errorf("%v: recoveryPoint VCL %d / VDL %d, oracle %d / %d", h, vcl, vdl, ovcl, ovdl)
				}
			})
		}
	}
	t.Logf("%d histories: %d resurrect, %d lose", histories, resurrects, loses)
	if resurrects != 0 || loses != 0 {
		t.Fatalf("%d resurrecting and %d losing histories", resurrects, loses)
	}
}
