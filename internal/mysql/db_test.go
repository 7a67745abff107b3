package mysql

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/disk"
	"aurora/internal/netsim"
)

func testDB(t *testing.T, mirrored bool, cfg Config) (*netsim.Network, *DB) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	cfg.Instance = "mysql1"
	cfg.AZ = 0
	cfg.Mirrored = mirrored
	cfg.StandbyAZ = 1
	cfg.Net = net
	cfg.Disk = disk.FastLocal()
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return net, db
}

func TestCRUD(t *testing.T) {
	_, db := testDB(t, false, Config{})
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get %q %v %v", v, ok, err)
	}
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("deleted key visible")
	}
	if db.Stats().Commits != 3 {
		t.Fatalf("commits %d", db.Stats().Commits)
	}
}

func TestTransactionIsolationAndAbort(t *testing.T) {
	_, db := testDB(t, false, Config{})
	if err := db.Put([]byte("x"), []byte("base")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Put([]byte("x"), []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("x")); !ok {
		t.Fatal("committed row invisible")
	}
	v, _, _ := db.Get([]byte("x"))
	if string(v) != "base" {
		t.Fatalf("dirty read: %q", v)
	}
	tx.Abort()
	v, _, _ = db.Get([]byte("x"))
	if string(v) != "base" {
		t.Fatalf("abort lost data: %q", v)
	}
}

func TestWALAndBinlogTraffic(t *testing.T) {
	net, db := testDB(t, true, Config{})
	net.ResetStats()
	if err := db.Put([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.WALFlushes == 0 || s.WALBytes == 0 {
		t.Fatalf("no WAL traffic: %+v", s)
	}
	if s.BinlogBytes == 0 {
		t.Fatal("no binlog traffic")
	}
	// Mirrored config: each logical write crosses the network many times
	// (instance->EBS->mirror, stage to standby, standby->EBS->mirror...).
	if net.Stats().Messages < 12 {
		t.Fatalf("mirrored write only produced %d messages", net.Stats().Messages)
	}
}

func TestCheckpointFlushesDirtyPages(t *testing.T) {
	_, db := testDB(t, false, Config{CheckpointDirtyPages: 1 << 30})
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().PagesFlushed != 0 {
		t.Fatal("pages flushed before checkpoint")
	}
	redoBefore := db.Stats().RedoRecords
	if redoBefore == 0 {
		t.Fatal("no redo accumulated")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.PagesFlushed == 0 {
		t.Fatal("checkpoint flushed nothing")
	}
	if s.RedoRecords != 0 {
		t.Fatalf("redo not truncated at checkpoint: %d", s.RedoRecords)
	}
	if s.CheckpointLSN == 0 || s.CheckpointLSN != s.DurableLSN {
		t.Fatalf("checkpoint LSN %d durable %d", s.CheckpointLSN, s.DurableLSN)
	}
	// Double-write: two page writes per flushed page.
	if s.PagesFlushed%2 != 0 {
		t.Fatalf("double-write violated: %d", s.PagesFlushed)
	}
}

func TestAutomaticCheckpointInterferes(t *testing.T) {
	_, db := testDB(t, false, Config{CheckpointDirtyPages: 2})
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.Checkpoints == 0 {
		t.Fatal("automatic checkpoint never fired")
	}
	if s.StallsOnFlush == 0 {
		t.Fatal("foreground never stalled on checkpoint")
	}
}

func TestCrashRecoveryReplaysRedo(t *testing.T) {
	_, db := testDB(t, false, Config{CheckpointDirtyPages: 1 << 30})
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoRecords == 0 || rep.PagesTouched == 0 {
		t.Fatalf("recovery did nothing: %+v", rep)
	}
	// All committed data readable after recovery.
	for i := 0; i < 100; i += 13 {
		k := []byte(fmt.Sprintf("k%03d", i))
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s after recovery: %q %v %v", k, v, ok, err)
		}
	}
	// A checkpoint just before the crash shrinks redo to nothing.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep2, err := db.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RedoRecords != 0 {
		t.Fatalf("redo after checkpoint: %d", rep2.RedoRecords)
	}
}

func TestGroupCommitBatchesFlushes(t *testing.T) {
	// Batching only emerges when a flush takes real time: commits arriving
	// while one is on the wire share the next one.
	net := netsim.New(netsim.Config{IntraAZ: 200 * time.Microsecond})
	db, err := New(Config{
		Instance: "gc", AZ: 0, Net: net, Disk: disk.FastLocal(), GroupCommitMax: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const workers, per = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := db.Put([]byte(fmt.Sprintf("g%d-%d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := db.Stats()
	if s.Commits != workers*per {
		t.Fatalf("commits %d", s.Commits)
	}
	// Flushes must be (usually far) fewer than commits: group commit works.
	if s.WALFlushes >= s.Commits {
		t.Fatalf("no batching: %d flushes for %d commits", s.WALFlushes, s.Commits)
	}
}

func TestBinlogReplicationLag(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	primary, err := New(Config{Instance: "prim", AZ: 0, Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	rep, err := New(Config{Instance: "repl", AZ: 1, Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	link := primary.AttachReplica(rep)

	for i := 0; i < 100; i++ {
		if err := primary.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !link.Drain(5 * time.Second) {
		t.Fatal("replica never caught up")
	}
	if link.Applied() != 100 {
		t.Fatalf("applied %d", link.Applied())
	}
	v, ok, err := rep.Get([]byte("k099"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("replica read: %q %v %v", v, ok, err)
	}
	_, max, _ := link.Lag()
	if max <= 0 {
		t.Fatal("no lag measured")
	}
}

// Put borrows its value until the transaction resolves (txn.WriteSet), but the
// relay queue outlives Commit: a caller that reuses its buffer right after
// Commit must not change what the replica applies.
func TestReplicationOutlivesBorrowedValue(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	primary, err := New(Config{Instance: "prim", AZ: 0, Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	rep, err := New(Config{Instance: "repl", AZ: 1, Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	link := primary.AttachReplica(rep)

	// Park the replica's SQL thread behind the row lock, so the event is
	// still in flight while the buffer is reused.
	const blocker = 1 << 62
	if !rep.txns.Locks.TryAcquire(blocker, "k") {
		t.Fatal("could not take the replica's row lock")
	}
	buf := []byte("committed")
	if err := primary.Put([]byte("k"), buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		if waits, _ := rep.txns.Locks.Stats(); waits > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never reached the row lock")
		}
		time.Sleep(time.Millisecond)
	}
	copy(buf, "scribbled")
	rep.txns.Locks.ReleaseAll(blocker)
	if !link.Drain(5 * time.Second) {
		t.Fatal("replica never caught up")
	}
	for _, db := range []*DB{primary, rep} {
		if v, ok, err := db.Get([]byte("k")); err != nil || !ok || string(v) != "committed" {
			t.Fatalf("%s holds %q %v %v after the caller reused its buffer", db.cfg.Instance, v, ok, err)
		}
	}
}

func TestCacheMissesAreForegroundReads(t *testing.T) {
	_, db := testDB(t, false, Config{CachePages: 4, CheckpointDirtyPages: 4})
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.cache.Invalidate()
	for i := 0; i < 400; i += 57 {
		if _, ok, err := db.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil || !ok {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
	}
	if db.Stats().Cache.Misses == 0 {
		t.Fatal("no cache misses")
	}
}

// Close stops the group-commit loop. Commits racing it either land or fail,
// none panics on the closed queue or hangs; a transaction that took its locks
// before Close and commits after it fails with ErrClosed.
func TestCommitAfterCloseFails(t *testing.T) {
	_, db := testDB(t, false, Config{})
	late := db.Begin()
	if err := late.Put([]byte("late"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var closing atomic.Bool
	var wg, started sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		started.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := db.Put([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v"))
				if i == 0 {
					started.Done()
				}
				if err != nil {
					if !closing.Load() {
						t.Errorf("commit before Close: %v", err)
					}
					return
				}
			}
		}(w)
	}
	started.Wait()
	closing.Store(true)
	db.Close()
	wg.Wait()
	if err := late.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close: %v, want ErrClosed", err)
	}
}
