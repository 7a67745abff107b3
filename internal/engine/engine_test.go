package engine

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
	"aurora/internal/txn"
	"aurora/internal/volume"
)

func testDB(t *testing.T, cfg Config) (*volume.Fleet, *DB) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "e", Geometry: core.UniformGeometry(4), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	db, err := Create(vol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return f, db
}

func TestAutocommitCRUD(t *testing.T) {
	_, db := testDB(t, Config{})
	if err := db.Put([]byte("user:1"), []byte("ada")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("user:1"))
	if err != nil || !ok || string(v) != "ada" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := db.Put([]byte("user:1"), []byte("grace")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = db.Get([]byte("user:1"))
	if string(v) != "grace" {
		t.Fatalf("after update: %q", v)
	}
	if err := db.Delete([]byte("user:1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("user:1")); ok {
		t.Fatal("deleted row visible")
	}
	s := db.Stats()
	if s.Commits != 3 {
		t.Fatalf("commits %d", s.Commits)
	}
}

func TestCommitIsDurableAtReturn(t *testing.T) {
	_, db := testDB(t, Config{})
	tx := db.Begin()
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The engine's WAL-equivalent rule: commit acked iff VDL >= commit LSN.
	// All records of the tx (including the commit record) must be durable.
	if db.VDL() < db.Volume().Stats().HighestLSN {
		t.Fatalf("VDL %d below highest LSN %d after commit", db.VDL(), db.Volume().Stats().HighestLSN)
	}
}

// TestRewriteShipsWhatChanged: an update that keeps the value's length
// logs one record for the leaf (the changed bytes) beside the commit record,
// and a rewrite of the stored value logs the commit record alone — it is
// still a commit, durable at return.
func TestRewriteShipsWhatChanged(t *testing.T) {
	_, db := testDB(t, Config{})
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		val     string
		records core.LSN
	}{{"v2", 2}, {"v2", 1}} {
		before := db.Volume().Stats().HighestLSN
		if err := db.Put([]byte("k"), []byte(c.val)); err != nil {
			t.Fatal(err)
		}
		after := db.Volume().Stats().HighestLSN
		if after-before != c.records {
			t.Fatalf("put of %q logged %d records, want %d", c.val, after-before, c.records)
		}
		if db.VDL() < after {
			t.Fatalf("put of %q acknowledged with VDL %d below its commit LSN %d", c.val, db.VDL(), after)
		}
	}
}

func TestUncommittedWritesInvisible(t *testing.T) {
	_, db := testDB(t, Config{})
	tx := db.Begin()
	if err := tx.Put([]byte("x"), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	// Own reads see it.
	v, ok, _ := tx.Get([]byte("x"))
	if !ok || string(v) != "dirty" {
		t.Fatalf("own read: %q %v", v, ok)
	}
	// Other transactions do not.
	if _, ok, _ := db.Get([]byte("x")); ok {
		t.Fatal("dirty read")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := db.Get([]byte("x")); !ok || string(v) != "dirty" {
		t.Fatalf("after commit: %q %v", v, ok)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	_, db := testDB(t, Config{})
	if err := db.Put([]byte("x"), []byte("base")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Put([]byte("x"), []byte("mod")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete([]byte("x")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if v, ok, _ := db.Get([]byte("x")); !ok || string(v) != "base" {
		t.Fatalf("after abort: %q %v", v, ok)
	}
	// A finished tx rejects everything.
	if err := tx.Put([]byte("y"), nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after abort: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestRowLockConflictAndHandoff(t *testing.T) {
	_, db := testDB(t, Config{})
	tx1 := db.Begin()
	if err := tx1.Put([]byte("hot"), []byte("t1")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		tx2 := db.Begin()
		if err := tx2.Put([]byte("hot"), []byte("t2")); err != nil {
			got <- err
			return
		}
		got <- tx2.Commit()
	}()
	select {
	case <-got:
		t.Fatal("second writer proceeded while lock held")
	case <-time.After(30 * time.Millisecond):
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	v, _, _ := db.Get([]byte("hot"))
	if string(v) != "t2" {
		t.Fatalf("final value %q", v)
	}
}

func TestLockTimeoutAbortsTx(t *testing.T) {
	_, db := testDB(t, Config{LockTimeout: 40 * time.Millisecond})
	tx1 := db.Begin()
	if err := tx1.Put([]byte("k"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	err := tx2.Put([]byte("k"), []byte("2"))
	if !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("want lock timeout, got %v", err)
	}
	// tx2 is aborted; tx1 can still commit.
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Aborts == 0 {
		t.Fatal("timeout did not count an abort")
	}
}

func TestSnapshotTransactionFrozenView(t *testing.T) {
	_, db := testDB(t, Config{})
	if err := db.Put([]byte("acct"), []byte("100")); err != nil {
		t.Fatal(err)
	}
	snap := db.BeginSnapshot()
	defer snap.Abort()
	if err := db.Put([]byte("acct"), []byte("50")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := snap.Get([]byte("acct"))
	if err != nil || !ok || string(v) != "100" {
		t.Fatalf("snapshot read %q %v %v", v, ok, err)
	}
	// Snapshot scans too.
	got := ""
	if err := snap.Scan([]byte("a"), []byte("b"), func(k, v []byte) bool { got = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	if got != "100" {
		t.Fatalf("snapshot scan %q", got)
	}
	// Writes rejected.
	if err := snap.Put([]byte("acct"), nil); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("snapshot write: %v", err)
	}
	// Latest view unchanged.
	v, _, _ = db.Get([]byte("acct"))
	if string(v) != "50" {
		t.Fatalf("latest %q", v)
	}
}

func TestManyRowsWithSmallCache(t *testing.T) {
	_, db := testDB(t, Config{CachePages: 8})
	const n = 800
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Force cold reads through the storage service.
	db.Cache().Invalidate()
	for i := 0; i < n; i += 37 {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("get %s: %q %v %v", k, v, ok, err)
		}
	}
	if db.Stats().Cache.Misses == 0 {
		t.Fatal("expected cache misses")
	}
	rows, err := db.Rows()
	if err != nil || rows != n {
		t.Fatalf("rows %d %v", rows, err)
	}
}

func TestCrashRecoveryKeepsCommittedOnly(t *testing.T) {
	f, db := testDB(t, Config{})
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("c%03d", i)), []byte("committed")); err != nil {
			t.Fatal(err)
		}
	}
	// A transaction in flight at crash time: buffered writes never reach
	// the log, so recovery has nothing to undo.
	inflight := db.Begin()
	if err := inflight.Put([]byte("zz-inflight"), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db2, rep, err := Recover(context.Background(), f, volume.ClientConfig{WriterNode: "writer2", WriterAZ: 0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.VDL == 0 {
		t.Fatal("recovery found no durable data")
	}
	for i := 0; i < 50; i += 7 {
		k := []byte(fmt.Sprintf("c%03d", i))
		v, ok, err := db2.Get(k)
		if err != nil || !ok || string(v) != "committed" {
			t.Fatalf("get %s after recovery: %q %v %v", k, v, ok, err)
		}
	}
	if _, ok, _ := db2.Get([]byte("zz-inflight")); ok {
		t.Fatal("in-flight write survived crash")
	}
	// The recovered writer continues.
	if err := db2.Put([]byte("after"), []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := db2.Get([]byte("after")); !ok || string(v) != "recovery" {
		t.Fatalf("post-recovery write: %q %v", v, ok)
	}
}

func TestFeedDeliversCommittedRecords(t *testing.T) {
	_, db := testDB(t, Config{})
	s := db.Subscribe()
	defer s.Close()
	tx := db.Begin()
	if err := tx.Put([]byte("feed"), []byte("me")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	commit, vdl := takeUntil(t, s, 2*time.Second, commitOf(tx.ID()))
	if vdl == 0 || vdl < commit.LSN {
		t.Fatalf("commit at LSN %d taken with stream VDL %d", commit.LSN, vdl)
	}
}

// TestStalledStreamHoldsUpNoOther: a replica that stops draining its stream
// holds up no other. Two streams attach, one is never read, and the other
// must take the commit of the 5 000th sequential Put. Behind one fan-out
// goroutine with a 4 096-event channel per subscriber, the live subscriber
// stopped at the 2 048th commit, once the dead one's channel was full.
// Parallel, so it runs after the package's sequential tests: its 5 000
// commits made the wall-clock bound of TestCommitTraceCoversEveryStage miss
// more often when they ran just before it under the race detector.
func TestStalledStreamHoldsUpNoOther(t *testing.T) {
	t.Parallel()
	_, db := testDB(t, Config{})
	dead := db.Subscribe()
	defer dead.Close()
	live := db.Subscribe()
	defer live.Close()
	const puts = 5000
	var last uint64
	for i := 0; i < puts; i++ {
		tx := db.Begin()
		if err := tx.Put([]byte(fmt.Sprintf("s%d", i%100)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		last = tx.ID()
	}
	takeUntil(t, live, 3*time.Second, commitOf(last))
	if n := dead.Buffered(); n < puts {
		t.Fatalf("undrained stream holds %d records after %d commits", n, puts)
	}
}

func TestDegradedAfterQuorumLoss(t *testing.T) {
	f, db := testDB(t, Config{})
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Take 3 replicas of every PG down: write quorum impossible.
	for g := 0; g < f.PGs(); g++ {
		for r := 0; r < 3; r++ {
			f.Node(core.PGID(g), r).Crash()
		}
	}
	err := db.Put([]byte("b"), []byte("2"))
	if err == nil {
		t.Fatal("write succeeded without quorum")
	}
	if !db.Degraded() {
		t.Fatal("engine not degraded after quorum loss")
	}
	if err := db.Put([]byte("c"), []byte("3")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded write: %v", err)
	}
	// Reads still work (read availability survives).
	if v, ok, _ := db.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("read while degraded: %q %v", v, ok)
	}
}

func TestConcurrentWorkload(t *testing.T) {
	_, db := testDB(t, Config{CachePages: 256})
	const workers, per = 8, 60
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-k%03d", w, i))
				if err := db.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if _, _, err := db.Get(k); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	rows, err := db.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if rows != workers*per {
		t.Fatalf("rows %d, want %d", rows, workers*per)
	}
	if db.Stats().Commits != workers*per {
		t.Fatalf("commits %d", db.Stats().Commits)
	}
}

// TestFramedLSNsAreDense pins what volume recovery rests on: the commit
// pipeline and the rebalancer's page copies (a Grow's) frame from the one
// allocator at once, every group framed is shipped, and so every LSN up to the
// highest allocated is a record on some replica. A framed group that never
// shipped would be a hole: the durability window would stall below it, and
// recovery's walk would stop at it.
func TestFramedLSNsAreDense(t *testing.T) {
	f, db := testDB(t, Config{CachePages: 256})
	vol := db.Volume()
	const rows = 2000
	for i := 0; i < rows; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	var growing atomic.Bool
	var during atomic.Int64
	growing.Store(true)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; growing.Load(); i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%04d", (w*53+i)%rows)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Error(err)
					return
				}
				during.Add(1)
			}
		}(w)
	}
	// A hole stalls the grow's fence drain, so the grow is waited for with a
	// deadline of its own.
	type grown struct {
		rep *volume.GrowthReport
		err error
	}
	done := make(chan grown, 1)
	go func() {
		rep, err := vol.Grow(2)
		done <- grown{rep, err}
	}()
	var g grown
	select {
	case g = <-done:
	case <-time.After(10 * time.Second):
		growing.Store(false)
		t.Fatalf("the grow never finished: VDL %d, highest allocated %d", vol.VDL(), vol.HighestAllocated())
	}
	growing.Store(false)
	wg.Wait()
	rep, err := g.rep, g.err
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesCopied == 0 || during.Load() == 0 {
		t.Fatalf("the grow copied %d pages beside %d commits: nothing framed at once", rep.PagesCopied, during.Load())
	}
	t.Logf("the grow copied %d pages beside %d commits", rep.PagesCopied, during.Load())

	top := vol.HighestAllocated()
	durable := make(chan struct{})
	go func() { vol.WaitDurable(top); close(durable) }()
	select {
	case <-durable:
	case <-time.After(10 * time.Second):
		t.Fatalf("VDL %d never reached the highest allocated LSN %d", vol.VDL(), top)
	}
	if vdl := vol.VDL(); vdl != top {
		t.Fatalf("VDL %d, highest allocated %d", vdl, top)
	}
	var floor core.LSN
	held := make(map[core.LSN]bool)
	for g := 0; g < f.PGs(); g++ {
		for _, n := range f.Replicas(core.PGID(g)) {
			v := n.RecoveryView()
			floor = max(floor, v.Floor)
			for _, lsn := range v.Held {
				held[lsn] = true
			}
		}
	}
	for lsn := floor + 1; lsn <= top; lsn++ {
		if !held[lsn] {
			t.Fatalf("LSN %d of 1..%d is on no replica", lsn, top)
		}
	}
}

func TestEmptyCommitAndSnapshotCommit(t *testing.T) {
	_, db := testDB(t, Config{})
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := db.BeginSnapshot()
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
}
