package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"aurora/internal/btree"
	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/quorum"
	"aurora/internal/volume"
)

// twoGroupDB builds an engine on a 2-PG fleet with enough rows for several
// leaves, and finds two keys by watching what an update of each ships (to a
// value unlike the stored one: a rewrite of the same bytes changes no page
// and ships only the commit record): kSlow's
// leaf lives on the PG that does not hold the tree's meta page (so its commit
// has a batch on each PG — the commit record goes where the meta page is),
// kFast's on the PG that does (one batch, on that PG alone). A test that then
// slows or breaks the first PG has a commit that cannot settle and, right
// behind it, one whose own batches reach their quorum at once.
func twoGroupDB(t *testing.T) (net *netsim.Network, f *volume.Fleet, db *DB, slow core.PGID, kSlow, kFast []byte) {
	t.Helper()
	net = netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "cp", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "cp-writer", WriterAZ: 0})
	db, err = Create(vol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	const rows = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("row-%04d", i)) }
	val := make([]byte, 64)
	for i := 0; i < rows; i++ {
		if err := db.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	slow = 1 - vol.PGOf(btree.MetaPageID)
	// A durable batch is on four replicas at least, so the replica that has
	// received most has received every record the PG was sent.
	received := func() uint64 {
		var most uint64
		for _, n := range f.Replicas(slow) {
			most = max(most, n.Stats().RecordsReceived)
		}
		return most
	}
	probe := bytes.Repeat([]byte{1}, len(val))
	for i := 0; i < rows && (kSlow == nil || kFast == nil); i += 7 {
		before := received()
		if err := db.Put(key(i), probe); err != nil {
			t.Fatal(err)
		}
		if received() > before {
			kSlow = key(i)
		} else {
			kFast = key(i)
		}
	}
	if kSlow == nil || kFast == nil {
		t.Fatalf("setup: no key on each PG (slow %q, fast %q)", kSlow, kFast)
	}
	return net, f, db, slow, kSlow, kFast
}

// TestCrashDoesNotAckCommitBelowVDL: a commit completes if and only if the
// VDL has reached its commit LSN (§4.2.2), and a writer crash is not the VDL
// reaching anything. The commit of kFast has every batch on its quorum within
// microseconds but sits behind kSlow's, which is 300 ms from its own; the
// writer crashes in between. Before the group completion moved into the
// durability window, kFast's completion was parked on a VDL-tracker channel
// that Crash closes unconditionally, and Commit returned nil with the VDL
// below its commit LSN (at PR 20, twenty runs of twenty: "second Put
// acknowledged with VDL 2294 below its commit LSN 2302").
//
// The acknowledged commit was not then lost end to end only because recovery
// has a hole of its own (ROADMAP, open item: it cannot see a record that no
// replica holds, and reports the VDL at the commit LSN over a record that is
// on no disk). The ack rule has to be right before that is fixed, or the fix starts
// losing acknowledged commits.
func TestCrashDoesNotAckCommitBelowVDL(t *testing.T) {
	net, f, db, slow, kSlow, kFast := twoGroupDB(t)
	for _, n := range f.Replicas(slow) {
		if err := net.SetNodeDelay(n.NodeID(), 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- db.Put(kSlow, []byte("slow")) }()
	time.Sleep(20 * time.Millisecond)
	go func() { second <- db.Put(kFast, []byte("fast")) }()
	time.Sleep(50 * time.Millisecond)
	commitLSN := db.Stats().Volume.HighestLSN // kFast's: the last one framed
	db.Crash()
	if err := <-second; err == nil {
		t.Errorf("second Put acknowledged with VDL %d below its commit LSN %d", db.VDL(), commitLSN)
	} else if !errors.Is(err, ErrDegraded) {
		t.Errorf("second Put: %v, want ErrDegraded", err)
	}
	if err := <-first; err == nil {
		t.Errorf("first Put acknowledged with VDL %d, 230 ms before its quorum", db.VDL())
	}
	if vdl := db.VDL(); vdl >= commitLSN {
		t.Fatalf("setup: VDL %d reached commit LSN %d before the crash", vdl, commitLSN)
	}
}

// TestCommitBehindFailedGroupFailsPromptly: a batch that can never reach its
// quorum pins the VDL below its group for good, so a commit framed behind it
// can never complete — and has to be told so. Three of the slow PG's replicas
// are down and the other three answer after 5 ms, and kFast commits as soon as
// kSlow is framed — before its verdict, which takes the redeliveries to the
// dead replicas. Before the failure cascaded through the durability window,
// kFast's group reached its own quorum, parked on the VDL and hung — with the
// engine reporting Degraded — until Close released it with nil (at PR 20,
// twenty runs of twenty: "second Put hung for 3s behind a failed group; Close
// then released it with <nil> (VDL 2294, highest LSN 2302, degraded true)").
func TestCommitBehindFailedGroupFailsPromptly(t *testing.T) {
	net, f, db, slow, kSlow, kFast := twoGroupDB(t)
	for i, n := range f.Replicas(slow) {
		if i < 3 {
			n.Crash()
		} else if err := net.SetNodeDelay(n.NodeID(), 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	first, second := make(chan error, 1), make(chan error, 1)
	framed := db.Stats().Volume.HighestLSN
	go func() { first <- db.Put(kSlow, []byte("slow")) }()
	for db.Stats().Volume.HighestLSN == framed {
		runtime.Gosched()
	}
	go func() { second <- db.Put(kFast, []byte("fast")) }()
	const bound = 3 * time.Second
	select {
	case err := <-second:
		if !errors.Is(err, ErrDegraded) {
			t.Errorf("second Put: %v, want ErrDegraded", err)
		}
	case <-time.After(bound):
		db.Close()
		t.Fatalf("second Put hung for %v behind a failed group; Close then released it with %v (VDL %d, highest LSN %d, degraded %v)",
			bound, <-second, db.VDL(), db.Stats().Volume.HighestLSN, db.Degraded())
	}
	if err := <-first; !errors.Is(err, ErrDegraded) {
		t.Errorf("first Put: %v, want ErrDegraded", err)
	}
	if !db.Degraded() {
		t.Error("engine not degraded after a quorum loss")
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCommitSpawnsNoGoroutine pins the commit path's shape next to the volume's
// TestShipIsTheCallersGoroutine: a commit is the committer, the framer and the
// sender workers — the worker whose ack completes the quorum completes the
// commit — and what it allocates is a fixed count. The only goroutine a commit
// may start is a worker of a sender's window, when the previous commit's fifth
// or sixth delivery is still out: those are counted, never exit while the
// volume is open and number at most volume.SenderWindow per sender, so every
// goroutine beyond them was there before the first commit.
func TestCommitSpawnsNoGoroutine(t *testing.T) {
	f, db := testDB(t, Config{})
	key, val := []byte("k"), make([]byte, 64)
	commit := func() {
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // cache the pages, fill the pools
		commit()
	}
	// A worker is counted before it is started, so reading the goroutines
	// first can only err towards passing a count that was in fact exact.
	besidesWorkers := func() (others, workers int) {
		n := runtime.NumGoroutine()
		workers = db.Stats().Volume.SenderWorkers
		return n - workers, workers
	}
	senders := f.PGs() * 6
	base, _ := besidesWorkers()
	for i := 0; i < 1000; i++ {
		commit()
		others, workers := besidesWorkers()
		if others > base {
			t.Fatalf("commit %d: %d goroutines besides the sender workers, %d before the first", i, others, base)
		}
		if workers > senders*volume.SenderWindow {
			t.Fatalf("commit %d: %d sender workers, bound is %d x %d", i, workers, senders, volume.SenderWindow)
		}
	}
	// One cached single-row update, end to end, measured 7 objects: the write
	// set's buffer, the commit request (which carries the write store, the
	// recorder and the MTR) and its channel, the redo's bytes and its record
	// slice, the framed group and its completion. The transaction itself stays
	// on DB.Put's stack, a one-byte key needs no string, and what twelve
	// deliveries (two batches: the row's PG and the commit record's) leave on
	// the storage nodes is copied into their record arenas, whose chunk
	// refills round to nothing per commit. A garbage collection in the middle
	// of a run empties the pools and adds an object or two to that run's
	// average, so the pin is on the best of five. Under the race detector,
	// whose sync.Pool drops a quarter of what is put into it, it is more.
	const pinned = 8
	best := testing.AllocsPerRun(200, commit)
	for i := 0; i < 4; i++ {
		best = min(best, testing.AllocsPerRun(200, commit))
	}
	t.Logf("%.0f objects per cached single-row commit", best)
	if best > pinned && !raceEnabled() {
		t.Fatalf("a cached single-row commit allocates %.0f objects, pinned at %d", best, pinned)
	}
}

// TestCompletionUnderCommitLoad: the completion releases the group's arena, and
// at shutdown it can run while the framer is still handing that very group to
// the sender pipelines — Crash and Close stop the pipelines and sweep the
// window with the framer mid-enqueue, and a stopped pipeline nacks inline, so
// the third nack settles the group on the framer's own goroutine; a quorum
// loss settles every group behind the failed one from a sender loop, whatever
// the framer is doing with them. Committers keep the queue full of multi-batch
// groups (a row's PG and the commit record's) while the instance goes away
// under them; every commit must get an outcome, and the ones acknowledged must
// be at or below the VDL. For -race
// -count: before ShipAsync enqueued on a reference of its own this panicked in
// the arena pool (see volume's TestCompletionMayReleaseDuringShip for the
// deterministic half).
func TestCompletionUnderCommitLoad(t *testing.T) {
	quorumLoss := func(f *volume.Fleet, _ *DB) {
		for pg := 0; pg < f.PGs(); pg++ {
			for i := 0; i < 3; i++ {
				f.Node(core.PGID(pg), i).Crash()
			}
		}
	}
	for _, tc := range []struct {
		name     string
		shutdown func(*volume.Fleet, *DB)
	}{
		{"crash", func(_ *volume.Fleet, db *DB) { db.Crash() }},
		{"close", func(_ *volume.Fleet, db *DB) { db.Close() }},
		{"quorum-loss", quorumLoss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				f, db := testDB(t, Config{})
				setPipelineBudgets(db, 8, 1)
				const committers = 16
				acked := make(chan core.LSN, committers)
				for w := 0; w < committers; w++ {
					go func(w int) {
						var last core.LSN
						defer func() { acked <- last }()
						val := make([]byte, 64)
						for i := 0; ; i++ {
							if err := db.Put([]byte(fmt.Sprintf("row-%02d-%04d", w, i)), val); err != nil {
								return
							}
							last = db.VDL() // at or above the commit's LSN: it was acknowledged
						}
					}(w)
				}
				time.Sleep(time.Duration(2+round) * time.Millisecond)
				tc.shutdown(f, db)
				for w := 0; w < committers; w++ {
					select {
					case last := <-acked:
						if vdl := db.VDL(); last > vdl {
							t.Fatalf("a commit was acknowledged at VDL %d; the final VDL is %d", last, vdl)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("round %d: a committer is still waiting for its outcome", round)
					}
				}
			}
		})
	}
}

// TestCreateFailureClosesTheInstance: a format that cannot reach its quorum
// fails Create through the same shutdown as Close, volume client included.
func TestCreateFailureClosesTheInstance(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "cf", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.Node(0, i).Crash()
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "cf-writer", WriterAZ: 0})
	if _, err := Create(vol, Config{}); !errors.Is(err, quorum.ErrQuorumImpossible) {
		t.Fatalf("Create on a fleet below its write quorum: %v", err)
	}
	m := &core.MTR{Txn: 1}
	m.AddDelta(0, 0, 0, []byte("x"))
	if _, err := vol.WriteMTR(context.Background(), m); !errors.Is(err, volume.ErrClosed) {
		t.Fatalf("write after a failed Create: %v, want ErrClosed", err)
	}
}
