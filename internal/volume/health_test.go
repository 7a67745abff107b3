package volume

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/page"
	"aurora/internal/storage"
)

func TestHealthStateTransitions(t *testing.T) {
	h := newHealthTracker(HealthConfig{}, 1, 6)

	// Peers report normal latencies.
	for i := 1; i < 6; i++ {
		h.ObserveOK(0, i, 100*time.Microsecond)
	}
	if s := h.State(0, 0); s != Healthy {
		t.Fatalf("untouched replica: %v, want healthy", s)
	}

	// A short failure streak degrades; a long one makes the replica suspect.
	h.ObserveFailure(0, 0)
	if s := h.State(0, 0); s != Healthy {
		t.Fatalf("one failure: %v, want healthy", s)
	}
	h.ObserveFailure(0, 0)
	if s := h.State(0, 0); s != Degraded {
		t.Fatalf("two failures: %v, want degraded", s)
	}
	for i := 0; i < 3; i++ {
		h.ObserveFailure(0, 0)
	}
	if s := h.State(0, 0); s != Suspect {
		t.Fatalf("five failures: %v, want suspect", s)
	}

	// One success clears the streak: gray, not gone.
	h.ObserveOK(0, 0, 100*time.Microsecond)
	if s := h.State(0, 0); s != Healthy {
		t.Fatalf("after success: %v, want healthy", s)
	}

	// Gray-slow signature: success at a latency far above every peer.
	for i := 0; i < 20; i++ {
		h.ObserveOK(0, 0, 10*time.Millisecond)
	}
	if s := h.State(0, 0); s != Degraded {
		t.Fatalf("gray-slow replica: %v, want degraded", s)
	}
	// Peers at comparable latency are not penalized: an all-slow PG (e.g. a
	// cross-AZ view) classifies everyone healthy relative to each other.
	if s := h.State(0, 1); s != Healthy {
		t.Fatalf("normal peer: %v, want healthy", s)
	}
}

// TestWritesRideOutPacketLoss drops 15% of every message and expects the
// write path to absorb all of it through redelivery: zero failed writes,
// nonzero retries, no committed data lost (the gray network regime of the
// tentpole).
func TestWritesRideOutPacketLoss(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{Name: "fl", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	t.Cleanup(c.Close)

	net.SetDropProb(0.15)
	var last core.LSN
	for i := 0; i < 96; i++ {
		last = writePage(t, c, core.PageID(i%8), fmt.Sprintf("v%03d", i))
	}
	net.SetDropProb(0)

	s := c.Stats()
	if s.WriteFailures != 0 {
		t.Fatalf("write failures under 15%% loss: %+v", s)
	}
	if s.WriteRetries == 0 {
		t.Fatal("no redeliveries recorded under 15% loss")
	}
	if c.VDL() != last {
		t.Fatalf("VDL %d, want %d", c.VDL(), last)
	}
	// Redeliveries dropped once the quorum resolved leave holes behind;
	// that is gossip's job (§3.3), so converge the fleet before reading.
	for pg := 0; pg < 2; pg++ {
		storage.SyncGroup(f.Replicas(core.PGID(pg)))
	}
	// Every page must read back as its final committed version.
	for i := 0; i < 8; i++ {
		p, _, err := c.ReadPage(context.Background(), core.PageID(i))
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := fmt.Sprintf("v%03d", 88+i)
		if got := string(p.Payload()[:4]); got != want {
			t.Fatalf("page %d: %q, want %q", i, got, want)
		}
	}
}

// TestRespDropCountedDistinctly kills only the response path from the
// best-ordered replica to a read-only attachment: the segment read succeeds
// on the node, the response vanishes, and that must be counted as RespDrops
// (a distinct failure mode) while the read itself still succeeds via the
// next candidate.
func TestRespDropCountedDistinctly(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{Name: "rd", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	t.Cleanup(c.Close)
	writePage(t, c, 3, "page")
	// The write returns on four acks of six. Let the other two land: a replica
	// whose ack has not reported the page's LSN yet orders last, as behind, and
	// the read would never try the two this test breaks.
	for _, s := range (*c.senders.Load())[0] {
		s.waitIdle()
	}

	r, _ := NewReader(c, "replica-reader", 0)
	defer r.Close()

	// The reader sits in AZ0, so replicas 0 and 1 order first (same AZ;
	// write-path EWMAs pick which of the two leads). Break both of their
	// response paths: the segment reads succeed, the responses vanish, and
	// the read must fail over to a cross-AZ replica.
	net.SetLinkDropProb(f.Node(0, 0).NodeID(), "replica-reader", 1.0)
	net.SetLinkDropProb(f.Node(0, 1).NodeID(), "replica-reader", 1.0)

	p, err := r.ReadPageAt(context.Background(), 3, c.VDL(), c.VDL())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := string(p.Payload()[:4]); got != "page" {
		t.Fatalf("read %q, want %q", got, "page")
	}
	if drops := f.Health().Stats().RespDrops; drops == 0 {
		t.Fatal("lost response after successful segment read not counted as RespDrops")
	}
}

// TestHedgedReadBoundsTailLatency gray-slows both same-AZ replicas of a PG
// by 20ms — without hedging every read would stall on them, since locality
// orders them first. The deadline hedge must fail over to the cross-AZ
// replicas and keep the read p99 within 3x the healthy baseline (with a
// small absolute floor for simulation jitter).
func TestHedgedReadBoundsTailLatency(t *testing.T) {
	net := netsim.New(netsim.Datacenter())
	f, err := NewFleet(FleetConfig{Name: "hg", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	t.Cleanup(c.Close)
	for i := 0; i < 8; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("p%03d", i))
	}

	p99 := func(n int) time.Duration {
		lats := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, _, err := c.ReadPage(context.Background(), core.PageID(i%8)); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			lats = append(lats, time.Since(start))
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return lats[len(lats)*99/100]
	}

	base := p99(100) // healthy baseline; also seeds the deadline estimator

	for _, idx := range []int{0, 1} { // both AZ0 replicas: locality's favorites
		if err := net.SetNodeDelay(f.Node(0, idx).NodeID(), 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// The transient — reads hedged before the slow replicas' EWMAs catch up
	// and demote them — is a handful of reads at ~deadline latency; a wide
	// sample keeps p99 judging the steady state the tracker converges to.
	grayP99 := p99(1000)

	limit := 3 * base
	if floor := 3 * time.Millisecond; limit < floor {
		limit = floor
	}
	if grayP99 > limit {
		t.Fatalf("gray p99 %v exceeds limit %v (baseline %v)", grayP99, limit, base)
	}
	if hs := f.Health().Stats(); hs.Hedges == 0 {
		t.Fatal("no hedges launched while the preferred replicas were gray-slow")
	}
}

// TestMonitorAutoRepairsSuspect wipes a segment and lets the write path's
// failure streak push it to Suspect; the fleet's self-driven repair monitor
// must re-replicate it with no operator involvement — one pass of it called
// directly, and the monitor Fleet.Start runs, within a deadline.
func TestMonitorAutoRepairsSuspect(t *testing.T) {
	wipeUntilSuspect := func(t *testing.T, f *Fleet, c *Client) {
		t.Helper()
		for i := 0; i < 4; i++ {
			writePage(t, c, core.PageID(i), "warm")
		}
		f.Node(0, 2).Wipe()
		// Each failed flight observes at least one failure on the wiped
		// replica. Its sender runs asynchronously and coalesces queued
		// batches, so write until the streak crosses the Suspect threshold
		// (bounded). The running monitor may repair the replica first.
		deadline := time.Now().Add(2 * time.Second)
		for i := 0; f.Health().State(0, 2) != Suspect && f.Health().Stats().AutoRepairs == 0; i++ {
			if time.Now().After(deadline) {
				t.Fatalf("wiped replica never became suspect (state %v)", f.Health().State(0, 2))
			}
			writePage(t, c, core.PageID(i%4), fmt.Sprintf("w%02d", i%100))
			time.Sleep(time.Millisecond)
		}
	}
	repaired := func(t *testing.T, f *Fleet) {
		t.Helper()
		if f.Health().Stats().AutoRepairs == 0 {
			t.Fatal("monitor did not record an auto repair")
		}
		if got, want := f.Node(0, 2).SCL(), f.Node(0, 0).SCL(); got != want {
			t.Fatalf("repaired SCL %d, want %d", got, want)
		}
		if s := f.Health().State(0, 2); s != Healthy {
			t.Fatalf("repaired replica state %v, want healthy", s)
		}
	}

	t.Run("one pass", func(t *testing.T) {
		f, c := testVolume(t, 1)
		wipeUntilSuspect(t, f, c)
		f.healthMonitorOnce()
		repaired(t, f)
	})

	t.Run("running monitor", func(t *testing.T) {
		f, c := testVolume(t, 1)
		f.Start()
		t.Cleanup(f.Stop)
		wipeUntilSuspect(t, f, c)
		deadline := time.Now().Add(2 * time.Second)
		for f.Health().Stats().AutoRepairs == 0 || f.Node(0, 2).SCL() != f.Node(0, 0).SCL() {
			if time.Now().After(deadline) {
				t.Fatalf("running monitor never repaired the wiped replica (%d repairs, SCL %d vs %d)",
					f.Health().Stats().AutoRepairs, f.Node(0, 2).SCL(), f.Node(0, 0).SCL())
			}
			time.Sleep(monitorInterval)
		}
		repaired(t, f)
	})
}

// TestHedgedReadKeepsStaleGeometryVerdict: while a cutover's epoch broadcast
// is still reaching the nodes, the replicas that heard it nack a read with
// ErrStaleGeometry and a lagging one that has not refuses it as incomplete.
// The lagging replica is tried last, but its refusal must not mask the
// stale-geometry verdict — that is what makes the read path re-route.
func TestHedgedReadKeepsStaleGeometryVerdict(t *testing.T) {
	h := newHealthTracker(HealthConfig{}, 1, 3)
	errs := []error{storage.ErrStaleGeometry, storage.ErrStaleGeometry, storage.ErrIncomplete}
	_, err := h.runHedged(context.Background(), 0, []int{0, 1, 2}, func(_ context.Context, idx int, _ bool) (page.Page, error) {
		return nil, errs[idx]
	})
	if !errors.Is(err, storage.ErrStaleGeometry) {
		t.Fatalf("got %v, want the stale-geometry verdict", err)
	}

	// The same with the verdicts arriving through hedges: the first replica
	// sits on the read until both hedges have reported — the stale-geometry
	// nack from a hedge's goroutine, then the lagging replica's refusal — and
	// only then refuses too, on the caller's goroutine, last of all.
	h = newHealthTracker(HealthConfig{HedgeMin: 100 * time.Microsecond}, 1, 3)
	reported := make(chan struct{}, 2)
	_, err = h.runHedged(context.Background(), 0, []int{0, 1, 2}, func(_ context.Context, idx int, hedged bool) (page.Page, error) {
		switch idx {
		case 0:
			<-reported
			<-reported
			return nil, storage.ErrIncomplete
		case 1:
			defer func() { reported <- struct{}{} }()
			return nil, storage.ErrStaleGeometry
		}
		defer func() { reported <- struct{}{} }()
		return nil, storage.ErrIncomplete
	})
	if !errors.Is(err, storage.ErrStaleGeometry) {
		t.Fatalf("hedged: got %v, want the stale-geometry verdict", err)
	}
	if s := h.Stats(); s.Hedges != 2 || s.HedgeWins != 0 || s.HedgeCancels != 0 {
		t.Fatalf("hedged: counters %+v, want two hedges and nothing won or canceled", s)
	}
}

// TestHealthMonitorPassAllocatesNothing: the repair loop runs on every
// fleet, all the time, so a pass over healthy replicas must cost no objects —
// each PG is snapshotted once, onto the stack, not once per replica onto the
// heap.
func TestHealthMonitorPassAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates; the pin runs in normal builds")
	}
	f, c := testVolume(t, 4)
	for id := core.PageID(1); id <= 8; id++ {
		writePage(t, c, id, "healthy")
	}
	pass := func() { f.healthMonitorOnce() }
	pass()
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("a health monitor pass over a healthy fleet allocates %.1f objects, want 0", avg)
	}
	if s := f.Health().Stats(); s.AutoRepairs != 0 {
		t.Fatalf("healthy fleet was repaired %d times", s.AutoRepairs)
	}
}
