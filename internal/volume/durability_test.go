package volume

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/quorum"
)

// TestVDLNeverPassesAnUnackedBatch is the regression test for a quorum
// vouching for records it does not hold. The framer interleaves a group's
// LSNs across PGs — the MTR {pg0@1, pg1@2, pg0@3} gives PG0 the batch 1..3
// and PG1 the batch 2..2 — and the writer used to mark a batch's whole LSN
// span durable when its quorum resolved, so PG0's quorum declared LSN 2
// durable while it was on no disk. Here PG1 is slow: until its batch is on
// its own quorum the VDL, both durable tails and a following PG0-only
// commit's acknowledgement must all wait for it.
func TestVDLNeverPassesAnUnackedBatch(t *testing.T) {
	f, c := testVolume(t, 2)
	ctx := context.Background()
	for _, n := range f.Replicas(1) {
		if err := f.Net().SetNodeDelay(n.NodeID(), 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	m := &core.MTR{Txn: 1}
	m.AddDelta(0, 0, 0, []byte("a")) // LSN 1
	m.AddDelta(1, 1, 0, []byte("b")) // LSN 2
	m.AddDelta(0, 2, 0, []byte("c")) // LSN 3
	first := make(chan error, 1)
	go func() {
		_, err := c.WriteMTR(ctx, m)
		first <- err
	}()
	// PG0's batch reaches its quorum at once.
	pg0Holds := func(lsn core.LSN) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for have := 0; have < f.Quorum().Vw; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("PG0's batch up to %d is on %d replicas", lsn, have)
			}
			have = 0
			for _, n := range f.Replicas(0) {
				if n.HighestLSN() >= lsn {
					have++
				}
			}
		}
	}
	pg0Holds(3)
	// So does a PG0-only MTR behind it.
	m2 := &core.MTR{Txn: 2}
	m2.AddDelta(0, 0, 0, []byte("d")) // LSN 4
	const cpl = 4
	second := make(chan error, 1)
	go func() {
		got, err := c.WriteMTR(ctx, m2)
		if err == nil && got != cpl {
			err = fmt.Errorf("second MTR's cpl %d, want %d", got, cpl)
		}
		second <- err
	}()
	pg0Holds(cpl)
	for i, n := range f.Replicas(1) {
		if hi := n.HighestLSN(); hi != 0 {
			t.Fatalf("setup: PG1 replica %d already holds LSN %d", i, hi)
		}
	}
	if vdl := c.VDL(); vdl != 0 {
		t.Fatalf("VDL %d while LSN 2 is on no disk", vdl)
	}
	for pg := core.PGID(0); pg < 2; pg++ {
		if tail := c.DurableTail(pg); tail != 0 {
			t.Fatalf("DurableTail(%d) = %d while the VDL is 0", pg, tail)
		}
	}
	select {
	case err := <-second:
		t.Fatalf("cpl %d acknowledged (%v) while LSN 2 is on no disk", cpl, err)
	default:
	}

	// PG1 resolves: the ack that completes its quorum publishes both groups.
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if vdl := c.VDL(); vdl != 4 {
		t.Fatalf("VDL %d once every batch is on its quorum, want 4", vdl)
	}
	if t0, t1 := c.DurableTail(0), c.DurableTail(1); t0 != 4 || t1 != 2 {
		t.Fatalf("durable tails %d, %d; want 4, 2", t0, t1)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// TestDurableTailIsOnItsQuorum is the same rule under load, for -race: four
// writers of MTRs that interleave every PG, storage nodes whose latency jitters,
// and a checker asserting at all times that each PG's durable tail is held
// by a write quorum of that PG's replicas (of its log tier under the
// Taurus mix, whose page replicas get no foreground batch).
func TestDurableTailIsOnItsQuorum(t *testing.T) {
	for _, q := range []quorum.Config{quorum.Aurora(), quorum.TaurusMix()} {
		name, tier, need := "aurora", q.V, q.Vw
		if q.Split() {
			name, tier, need = "taurus", q.LogV, q.LogVw
		}
		t.Run(name, func(t *testing.T) {
			const pgs, writers, rounds = 3, 4, 60
			net := netsim.New(netsim.FastLocal())
			f, err := NewFleet(FleetConfig{Name: "q", Geometry: core.UniformGeometry(pgs), Net: net, Disk: disk.FastLocal(), Quorum: q})
			if err != nil {
				t.Fatal(err)
			}
			c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
			defer c.Close()

			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(2)
			go func() { // latency jitter, node by node
				defer bg.Done()
				rng := rand.New(rand.NewSource(1))
				for {
					select {
					case <-stop:
						return
					case <-time.After(200 * time.Microsecond):
					}
					n := f.Node(core.PGID(rng.Intn(pgs)), rng.Intn(tier))
					if err := net.SetNodeDelay(n.NodeID(), time.Duration(rng.Intn(4))*time.Millisecond); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // the checker
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for pg := core.PGID(0); pg < pgs; pg++ {
						tail := c.DurableTail(pg) // before the replicas: they only move up
						have := 0
						for _, n := range f.Replicas(pg)[:tier] {
							if n.HighestLSN() >= tail {
								have++
							}
						}
						if have < need {
							t.Errorf("pg %d durable tail %d is on %d replicas, want >= %d", pg, tail, have, need)
							return
						}
					}
					time.Sleep(50 * time.Microsecond)
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						// One record per PG and a second for the first of them,
						// so that PG's batch brackets the others' LSNs.
						m := &core.MTR{Txn: uint64(w*rounds + i + 1)}
						for k := 0; k <= pgs; k++ {
							id := core.PageID(w + k) // page id mod pgs is the PG
							m.AddDelta(c.PGOf(id), id, 0, []byte(fmt.Sprintf("%03d", i)))
						}
						if _, err := c.WriteMTR(context.Background(), m); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			bg.Wait()
		})
	}
}

// TestCompletionMayReleaseDuringShip: a group's completion runs on whichever
// goroutine settles it, which can be the shipper itself, halfway through its
// own enqueue loop — a sender pipeline that has already stopped nacks inline,
// and the third nack settles the group as failed. The engine's completion drops
// the creator reference, so ShipAsync must not be reading the framed group on
// that reference: here every pipeline is stopped (the framer of an engine that
// is crashing sees exactly this between its frame and the window's abandon)
// and the completion releases, as commitPipeline.complete does. Without a
// reference of its own the fourth Retain found the group already back in its
// pool (a nil dereference), or the second batch indexed a truncated slice.
func TestCompletionMayReleaseDuringShip(t *testing.T) {
	_, c := testVolume(t, 2)
	for round := 0; round < 3; round++ {
		m := &core.MTR{Txn: uint64(round + 1)}
		m.AddDelta(0, 0, 0, []byte("a"))
		m.AddDelta(1, 1, 0, []byte("b"))
		g, err := c.FrameMTRs(context.Background(), []*core.MTR{m})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			for _, pg := range *c.senders.Load() {
				for _, s := range pg {
					s.stop()
				}
			}
		}
		calls := 0
		var outcome error
		g.ShipAsync(nil, func(err error) {
			calls++
			outcome = err
			g.Release()
		})
		if calls != 1 || !errors.Is(outcome, quorum.ErrQuorumImpossible) {
			t.Fatalf("round %d: %d completions, outcome %v; want one, quorum impossible", round, calls, outcome)
		}
		// The last reference to go recycles the shell, which empties it.
		if n := len(g.g.Batches); n != 0 {
			t.Fatalf("round %d: the framed group still has %d batches: a reference leaked", round, n)
		}
	}
}
