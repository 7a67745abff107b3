package volume

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/storage"
)

// testPool builds a shared host fleet big enough for the 4/6 quorum: hosts
// round-robin over 3 AZs, so 9 hosts give 3 per AZ (the quorum needs 2
// distinct hosts per AZ per PG).
func testPool(t *testing.T, hosts int) (*netsim.Network, *storage.Pool) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	pool := storage.NewPool(storage.PoolConfig{
		Name: "shared", Hosts: hosts, Net: net, Disk: disk.FastLocal(),
	})
	return net, pool
}

func openTenant(t *testing.T, net *netsim.Network, pool *storage.Pool, vol core.VolumeID, pgs int) (*Fleet, *Client) {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Name: fmt.Sprintf("t%d", vol), Vol: vol, Pool: pool,
		Geometry: core.UniformGeometry(pgs), Net: net, Disk: disk.FastLocal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{
		WriterNode: netsim.NodeID(fmt.Sprintf("writer%d", vol)), WriterAZ: 0,
	})
	return f, c
}

// TestPooledFleetRequiresVolume: a pooled fleet with the zero VolumeID would
// make tenants indistinguishable; NewFleet must refuse it.
func TestPooledFleetRequiresVolume(t *testing.T) {
	net, pool := testPool(t, 9)
	_, err := NewFleet(FleetConfig{
		Name: "bad", Pool: pool,
		Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal(),
	})
	if err == nil {
		t.Fatal("NewFleet accepted Pool with Vol=0")
	}
}

// TestPlacementSpreadsTenants: every PG's replicas land on distinct hosts in
// the quorum's AZ pattern, and no host carries two segments of one
// (volume, PG).
func TestPlacementSpreadsTenants(t *testing.T) {
	net, pool := testPool(t, 9)
	for vol := core.VolumeID(1); vol <= 3; vol++ {
		f, c := openTenant(t, net, pool, vol, 2)
		defer c.Close()
		for g := 0; g < f.PGs(); g++ {
			seen := map[netsim.NodeID]bool{}
			for r, n := range f.Replicas(core.PGID(g)) {
				if n.Host() == nil {
					t.Fatalf("vol %d pg %d replica %d not host-bound", vol, g, r)
				}
				id := n.Host().ID()
				if seen[id] {
					t.Fatalf("vol %d pg %d: two replicas on host %s", vol, g, id)
				}
				seen[id] = true
				if want := netsim.AZ(f.Quorum().ReplicaAZ(r)); n.Host().AZ() != want {
					t.Fatalf("vol %d pg %d replica %d in AZ %d, want %d", vol, g, r, n.Host().AZ(), want)
				}
			}
		}
	}
	// With three tenants on nine hosts every machine should be serving
	// someone — placement balances rather than stacking one host.
	for _, h := range pool.Hosts() {
		if len(h.Segments()) == 0 {
			t.Fatalf("host %s idle while 3 tenants x 2 PGs x 6 replicas are placed", h.ID())
		}
	}
}

// TestTenantIsolationConcurrent is the -race isolation regression: two
// volumes share one host fleet under concurrent writers; each volume's VDL
// must advance monotonically, and every byte read back must be the bytes
// that tenant wrote.
func TestTenantIsolationConcurrent(t *testing.T) {
	net, pool := testPool(t, 9)
	f1, c1 := openTenant(t, net, pool, 1, 2)
	f2, c2 := openTenant(t, net, pool, 2, 2)
	defer c1.Close()
	defer c2.Close()
	_ = f1
	_ = f2

	const writes = 60
	var wg sync.WaitGroup
	run := func(c *Client, tag byte) {
		defer wg.Done()
		var prev core.LSN
		for i := 0; i < writes; i++ {
			id := core.PageID(i % 8)
			m := &core.MTR{Txn: uint64(i + 1)}
			// Each tenant writes its own tag so cross-volume leakage is
			// detectable by content, not just by error.
			m.AddDelta(c.PGOf(id), id, 0, bytes.Repeat([]byte{tag}, 64))
			if _, err := c.WriteMTR(context.Background(), m); err != nil {
				t.Errorf("tenant %c write %d: %v", tag, i, err)
				return
			}
			if v := c.VDL(); v < prev {
				t.Errorf("tenant %c VDL regressed %d -> %d", tag, prev, v)
				return
			} else {
				prev = v
			}
		}
	}
	wg.Add(2)
	go run(c1, 'a')
	go run(c2, 'b')
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	verify := func(c *Client, tag byte) {
		for i := 0; i < 8; i++ {
			p, _, err := c.ReadPage(context.Background(), core.PageID(i))
			if err != nil {
				t.Fatalf("tenant %c read page %d: %v", tag, i, err)
			}
			got := p.Payload()[:64]
			if !bytes.Equal(got, bytes.Repeat([]byte{tag}, 64)) {
				t.Fatalf("tenant %c page %d holds %q — cross-volume leakage", tag, i, got[:8])
			}
		}
	}
	verify(c1, 'a')
	verify(c2, 'b')

	// Storage-level check: no segment of either volume holds a record
	// stamped with the other volume's identity.
	for _, h := range pool.Hosts() {
		for _, vol := range []core.VolumeID{1, 2} {
			for _, n := range h.SegmentsOf(vol) {
				if n.Vol() != vol {
					t.Fatalf("host %s registry lists %s under vol %d", h.ID(), n.Vol(), vol)
				}
			}
		}
	}
}

// TestTenantRecoveryIsolated: crash tenant 1's writer and recover it while
// tenant 2 keeps writing; recovery must restore tenant 1's bytes and leave
// tenant 2's stream untouched.
func TestTenantRecoveryIsolated(t *testing.T) {
	net, pool := testPool(t, 9)
	f1, c1 := openTenant(t, net, pool, 1, 2)
	_, c2 := openTenant(t, net, pool, 2, 2)
	defer c2.Close()

	for i := 0; i < 20; i++ {
		id := core.PageID(i % 4)
		m := &core.MTR{Txn: uint64(i + 1)}
		m.AddDelta(c1.PGOf(id), id, 0, bytes.Repeat([]byte{'x'}, 32))
		if _, err := c1.WriteMTR(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	want1 := c1.VDL()
	c1.Crash()

	// Tenant 2 writes on while tenant 1 recovers.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := core.PageID(i % 4)
			m := &core.MTR{Txn: uint64(i + 1)}
			m.AddDelta(c2.PGOf(id), id, 0, bytes.Repeat([]byte{'y'}, 32))
			if _, err := c2.WriteMTR(context.Background(), m); err != nil {
				t.Errorf("tenant 2 during tenant 1 recovery: %v", err)
				return
			}
		}
	}()

	rc, rep, err := Recover(context.Background(), f1, ClientConfig{WriterNode: "writer1-g2", WriterAZ: 1})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rep.VDL < want1 {
		t.Fatalf("tenant 1 recovered VDL %d < pre-crash %d", rep.VDL, want1)
	}
	for i := 0; i < 4; i++ {
		p, _, err := rc.ReadPage(context.Background(), core.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Payload()[:32]; !bytes.Equal(got, bytes.Repeat([]byte{'x'}, 32)) {
			t.Fatalf("tenant 1 page %d after recovery holds %q", i, got[:8])
		}
	}
}

// TestWrongVolumeRejected: a batch stamped for one tenant thrown at another
// tenant's segment is refused with ErrWrongVolume, and gossip-path records
// with a foreign stamp are never filed.
func TestWrongVolumeRejected(t *testing.T) {
	net, pool := testPool(t, 9)
	f1, c1 := openTenant(t, net, pool, 1, 1)
	f2, c2 := openTenant(t, net, pool, 2, 1)
	defer c1.Close()
	defer c2.Close()

	m := &core.MTR{Txn: 1}
	m.AddDelta(c1.PGOf(3), 3, 0, []byte("mine"))
	if _, err := c1.WriteMTR(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	rec := core.Record{LSN: 999, PrevLSN: 0, Type: core.RecPageDelta, PG: 0, Page: 3, Offset: 0, Data: []byte("oops")}
	n2 := f2.Replicas(0)[0]
	if _, err := nodeIngest(t, n2, 1, rec); err == nil {
		t.Fatal("tenant 2 segment accepted tenant 1 batch")
	}
	before := n2.SCL()
	// Even a direct ingest attempt (the gossip path) must drop the record.
	if n2.HighestLSN() >= 999 {
		t.Fatal("foreign record visible on tenant 2 segment")
	}
	_ = f1
	if n2.SCL() != before {
		t.Fatal("foreign batch moved tenant 2 SCL")
	}
}
