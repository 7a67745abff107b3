package volume

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// TestLaterFlightMayLandFirst is the writer's half of the ordering contract of
// a windowed sender (storage's TestIngestLaterFlightFirst is the node's): a
// batch never waits out another commit's round trip, so a group framed behind
// one whose flights are held up lands first on those very replicas — and none
// of what is published may follow it there. The first group's flights to four
// replicas are held in the network; the second group, same PG, then reaches
// all six and resolves its quorum, while the VDL and the PG's durable tail
// stay below the first group and neither completion runs. Released, the first
// group reaches its own quorum, both complete in LSN order, and every replica
// ends gap-free at the top LSN without a gossip round. With one flight per
// replica at a time the second group reaches two replicas and waits.
func TestLaterFlightMayLandFirst(t *testing.T) {
	f, c := testVolume(t, 1)
	ctx := context.Background()
	net := f.Net()
	const hold = time.Hour
	inAir, release := make(chan struct{}, 8), make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	t.Cleanup(letGo) // before Close drains, whatever failed
	net.SetSleeper(func(d time.Duration) {
		if d >= hold {
			inAir <- struct{}{}
			<-release
		}
	})
	const heldReplicas = 4
	for _, n := range f.Replicas(0)[:heldReplicas] {
		if err := net.SetNodeDelay(n.NodeID(), hold); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(txn uint64) *GroupWrite {
		m := &core.MTR{Txn: txn}
		m.AddDelta(0, 1, 0, []byte{byte(txn)})
		m.AddDelta(0, 2, 0, []byte{byte(txn)})
		g, err := c.FrameMTRs(ctx, []*core.MTR{m})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Release)
		return g
	}
	type outcome struct {
		txn uint64
		err error
	}
	completed := make(chan outcome, 2)
	g1 := frame(1) // LSNs 1..2
	g1.ShipAsync(nil, func(err error) { completed <- outcome{1, err} })
	for i := 0; i < heldReplicas; i++ {
		<-inAir
	}
	for _, s := range (*c.senders.Load())[0][heldReplicas:] {
		s.waitIdle() // the other two have landed: no second worker there
	}
	for _, n := range f.Replicas(0)[:heldReplicas] {
		if err := net.SetNodeDelay(n.NodeID(), 0); err != nil {
			t.Fatal(err)
		}
	}
	g2 := frame(2) // LSNs 3..4
	g2.ShipAsync(nil, func(err error) { completed <- outcome{2, err} })
	top := g2.MaxCPL()

	for deadline := time.Now().Add(5 * time.Second); g2.batches[0].tr.Acks() < 6; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the second group is on %d replicas and waits behind the first group's flights", g2.batches[0].tr.Acks())
		}
	}
	if !g2.batches[0].tr.Resolved() || g1.batches[0].tr.Resolved() {
		t.Fatalf("quorums resolved: first group %v (four of its flights are held), second %v (it is on all six replicas)",
			g1.batches[0].tr.Resolved(), g2.batches[0].tr.Resolved())
	}
	for i, n := range f.Replicas(0)[:heldReplicas] {
		if !n.HasGaps() || n.SCL() != 0 {
			t.Fatalf("replica %d holds the later flight alone: SCL %d, gaps %v", i, n.SCL(), n.HasGaps())
		}
	}
	if vdl, tail := c.VDL(), c.DurableTail(0); vdl != 0 || tail != 0 {
		t.Fatalf("VDL %d, durable tail %d while LSNs 1..2 are on two replicas", vdl, tail)
	}
	select {
	case o := <-completed:
		t.Fatalf("group %d completed (%v) with the first group short of its quorum", o.txn, o.err)
	default:
	}
	if got, want := c.Stats().SenderWorkers, 6+heldReplicas; got != want {
		t.Fatalf("%d sender workers, want %d: one more on each replica with a flight out", got, want)
	}

	letGo()
	for want := uint64(1); want <= 2; want++ {
		if o := <-completed; o.txn != want || o.err != nil {
			t.Fatalf("completion %d: group %d, %v", want, o.txn, o.err)
		}
	}
	if vdl, tail := c.VDL(), c.DurableTail(0); vdl != top || tail != top {
		t.Fatalf("VDL %d, durable tail %d, want %d", vdl, tail, top)
	}
	if err := c.drainWrites(); err != nil {
		t.Fatal(err)
	}
	for i, n := range f.Replicas(0) {
		if s := n.Stats(); n.SCL() != top || n.HasGaps() || s.GossipRounds != 0 || s.RecordsGossiped != 0 {
			t.Fatalf("replica %d: SCL %d (top %d), gaps %v, %d records gossiped in %d rounds",
				i, n.SCL(), top, n.HasGaps(), s.RecordsGossiped, s.GossipRounds)
		}
	}
}

// TestSenderWorkersBoundedAndReaped: a sender's workers are started by need,
// never beyond its window whatever the load, and every one of them ends with
// the client — delivered out by Close, abandoned mid-flight by Crash.
func TestSenderWorkersBoundedAndReaped(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(c *Client, writers *sync.WaitGroup, stop *atomic.Bool)
	}{
		{"close", func(c *Client, writers *sync.WaitGroup, stop *atomic.Bool) {
			stop.Store(true)
			writers.Wait()
			c.Close()
		}},
		{"crash", func(c *Client, writers *sync.WaitGroup, _ *atomic.Bool) {
			c.Crash() // flights in the air, writers mid-Ship
			writers.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Datacenter())
			f, err := NewFleet(FleetConfig{Name: "w", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
			senders := *c.senders.Load()
			const callers = 64
			var writers sync.WaitGroup
			var stop atomic.Bool
			var written atomic.Int64
			for w := 0; w < callers; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; !stop.Load(); i++ {
						m := &core.MTR{Txn: uint64(w)}
						id := core.PageID(w*1000 + i)
						m.AddDelta(c.PGOf(id), id, 0, []byte("x"))
						if _, err := c.WriteMTR(context.Background(), m); err != nil {
							return // the crash
						}
						written.Add(1)
					}
				}(w)
			}
			most := 0
			for written.Load() < 20*callers {
				total := 0
				for pg := range senders {
					for i, s := range senders[pg] {
						s.mu.Lock()
						workers, flying := s.workers, s.flying
						s.mu.Unlock()
						if workers > SenderWindow || flying > workers {
							t.Fatalf("sender (%d,%d): %d workers, %d flights, window %d", pg, i, workers, flying, SenderWindow)
						}
						total += workers
					}
				}
				most = max(most, total)
				runtime.Gosched()
			}
			if most <= 2*6 {
				t.Fatalf("no sender ever had a second flight out under %d concurrent writers", callers)
			}
			tc.end(c, &writers, &stop)

			// The event: every worker has left its loop (drain returns on
			// exactly that, and has nothing else to do on a stopped pipeline).
			// The runtime retires a goroutine a moment after its last
			// statement, hence the yields.
			for pg := range senders {
				for _, s := range senders[pg] {
					s.drain()
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, %d before Bootstrap; %d workers started at most\n%s",
						runtime.NumGoroutine(), before, most, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}
