package volume

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/page"
	"aurora/internal/quorum"
	"aurora/internal/storage"
)

func testSplitVolume(t *testing.T, pgs int) (*Fleet, *Client) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := NewFleet(FleetConfig{
		Name: "tx", Geometry: core.UniformGeometry(pgs), Net: net,
		Disk: disk.FastLocal(), Quorum: quorum.TaurusMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Bootstrap(f, ClientConfig{WriterNode: "writer", WriterAZ: 0})
	t.Cleanup(c.Close)
	return f, c
}

// pauseFeeds pauses (or resumes) the background log→page feed on every page
// replica, so tests can force the page tier to lag arbitrarily far.
func pauseFeeds(f *Fleet, paused bool) {
	for g := 0; g < f.PGs(); g++ {
		for _, n := range f.Replicas(core.PGID(g)) {
			if n.Role() == core.RolePage {
				n.PauseFeed(paused)
			}
		}
	}
}

// TestSplitStaleReadFallsBack is the stale-page-replica regression test:
// with the feed paused no page replica has seen any redo, yet a read at a
// fresh read point must transparently replay the log from the tier's peers
// and serve the post-read-point version — never a stale page, never an
// error. Run under -race it also exercises the read-time catch-up pull
// racing the writer's foreground ingest on the log tier.
func TestSplitStaleReadFallsBack(t *testing.T) {
	f, c := testSplitVolume(t, 2)
	pauseFeeds(f, true)

	const pages = 4
	for i := 0; i < pages; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("s%02d", i))
	}
	readPoint := c.VDL()

	// Sanity: the page tier is genuinely stale — no feed has run.
	for _, n := range f.Replicas(0) {
		if n.Role() == core.RolePage && n.SCL() != core.ZeroLSN {
			t.Fatalf("page replica %s has SCL %d with the feed paused", n.NodeID(), n.SCL())
		}
	}

	for i := 0; i < pages; i++ {
		p, err := c.ReadPageAt(context.Background(), core.PageID(i), readPoint)
		if err != nil {
			t.Fatalf("read page %d at %d: %v", i, readPoint, err)
		}
		want := fmt.Sprintf("s%02d", i)
		if got := string(p.Payload()[:len(want)]); got != want {
			t.Fatalf("page %d: got %q, want %q (stale version served)", i, got, want)
		}
	}
}

// TestSplitStaleReadConcurrent races writers against readers with the
// background feed paused, so every read is forced through the catch-up
// path while the log tier is still ingesting. No read may observe a
// pre-read-point version of its page.
func TestSplitStaleReadConcurrent(t *testing.T) {
	f, c := testSplitVolume(t, 2)
	pauseFeeds(f, true)

	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := core.PageID(w)
			for i := 0; i < rounds; i++ {
				val := fmt.Sprintf("w%dv%04d", w, i)
				m := &core.MTR{Txn: uint64(w*rounds + i + 1)}
				m.AddDelta(c.PGOf(id), id, 0, []byte(val))
				cpl, err := c.WriteMTR(context.Background(), m)
				if err != nil {
					errs <- fmt.Errorf("write %s: %w", val, err)
					return
				}
				// VDL advances from acks and can momentarily trail the
				// returned commit point; read at the commit's own LSN once
				// VDL covers it so the just-written version is demanded.
				for c.VDL() < cpl {
					runtime.Gosched()
				}
				rp := cpl
				p, err := c.ReadPageAt(context.Background(), id, rp)
				if err != nil {
					errs <- fmt.Errorf("read %d at %d: %w", id, rp, err)
					return
				}
				if got := string(p.Payload()[:len(val)]); got != val {
					errs <- fmt.Errorf("page %d at %d: got %q, want %q (stale page served)", id, rp, got, val)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_ = f
}

// TestSplitCrashedLaggingPageReplica crashes a lagging page replica
// mid-read-stream: the hedged read must route around it to the surviving
// page replicas, which replay the log at read time.
func TestSplitCrashedLaggingPageReplica(t *testing.T) {
	f, c := testSplitVolume(t, 1)
	pauseFeeds(f, true)

	writePage(t, c, 0, "before-crash")
	readPoint := c.VDL()

	// Crash one lagging page replica (replica 3 = the first page-tier
	// index under TaurusMix).
	f.Node(0, 3).Crash()

	p, err := c.ReadPageAt(context.Background(), 0, readPoint)
	if err != nil {
		t.Fatalf("read with crashed lagging page replica: %v", err)
	}
	if got := string(p.Payload()[:len("before-crash")]); got != "before-crash" {
		t.Fatalf("got %q, want %q", got, "before-crash")
	}

	// Heal: restart, resume the feed, and let gossip converge the tier.
	f.Node(0, 3).Restart()
	pauseFeeds(f, false)
	storage.SyncGroup(f.Replicas(0))
	if scl := f.Node(0, 3).SCL(); scl < readPoint {
		t.Fatalf("healed page replica SCL %d, want >= %d", scl, readPoint)
	}
}

// TestSplitCommitNeedsOnlyLogTier verifies the tentpole ack rule: with every
// page replica down, commits still resolve on the 2/3 log-tier quorum; with
// a log replica down too (1 of 3 left), they must fail.
func TestSplitCommitNeedsOnlyLogTier(t *testing.T) {
	f, c := testSplitVolume(t, 1)
	for r := 3; r < 6; r++ {
		f.Node(0, r).Crash()
	}
	cpl := writePage(t, c, 0, "log-tier-only")
	if got := c.VDL(); got != cpl {
		t.Fatalf("VDL %d, want %d: commit did not resolve on the log tier alone", got, cpl)
	}

	// Drop the log tier below its write quorum: 2 of 3 log replicas down.
	f.Node(0, 1).Crash()
	f.Node(0, 2).Crash()
	m := &core.MTR{Txn: 99}
	m.AddDelta(0, 0, 0, []byte("no-quorum"))
	if _, err := c.WriteMTR(context.Background(), m); err == nil {
		t.Fatal("write succeeded with 1/3 log replicas, want quorum failure")
	}

	// Restore the log tier. The writer that lost a quorum stays suspended —
	// its VDL can never pass the failed record — and a recovered writer gets
	// the volume's write availability back.
	for r := 1; r < 6; r++ {
		f.Node(0, r).Restart()
	}
	storage.SyncGroup(f.Replicas(0))
	m = &core.MTR{Txn: 100}
	m.AddDelta(0, 0, 0, []byte("too-late"))
	if _, err := c.WriteMTR(context.Background(), m); !errors.Is(err, quorum.ErrQuorumImpossible) {
		t.Fatalf("write behind the failed one: %v", err)
	}
	c.Crash()
	c2, _, err := Recover(context.Background(), f, ClientConfig{WriterNode: "writer2", WriterAZ: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	writePage(t, c2, 0, "healed")
}

// TestSplitLogTierRefusesPageReads pins the role contract at the storage
// API: a log replica answers ErrWrongTier rather than serving (or faking) a
// page it never materializes.
func TestSplitLogTierRefusesPageReads(t *testing.T) {
	f, c := testSplitVolume(t, 1)
	writePage(t, c, 0, "v")
	rp := c.VDL()
	n := f.Node(0, 0)
	if n.Role() != core.RoleLog {
		t.Fatalf("replica 0 role %v, want log", n.Role())
	}
	epoch := f.Geometry().Epoch()
	if _, err := n.ReadPageChecked(context.Background(), 0, rp, rp, epoch, page.New(0)); !errors.Is(err, storage.ErrWrongTier) {
		t.Fatalf("log-tier read: %v, want ErrWrongTier", err)
	}
}
