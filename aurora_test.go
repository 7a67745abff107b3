package aurora

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
)

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	opts.DisableBackground = true
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterCRUDAndScan(t *testing.T) {
	c := newCluster(t, Options{})
	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.Get([]byte("k07"))
	if err != nil || !ok || string(v) != "v7" {
		t.Fatalf("get %q %v %v", v, ok, err)
	}
	if err := c.Delete([]byte("k07")); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := c.Scan([]byte("k00"), []byte("k10"), func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("scan count %d", count)
	}
	rows, err := c.Rows()
	if err != nil || rows != 19 {
		t.Fatalf("rows %d %v", rows, err)
	}
	s := c.Stats()
	if s.Commits == 0 || s.VDL == 0 || s.NetworkMessages == 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestClusterTransactions(t *testing.T) {
	c := newCluster(t, Options{})
	tx := c.Begin()
	if err := tx.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := c.BeginSnapshot()
	defer snap.Abort()
	if err := c.Put([]byte("a"), []byte("9")); err != nil {
		t.Fatal(err)
	}
	v, _, err := snap.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("snapshot %q %v", v, err)
	}
}

func TestClusterSurvivesAZFailure(t *testing.T) {
	c := newCluster(t, Options{})
	if err := c.Put([]byte("pre"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.FailAZ(1, true)
	defer c.FailAZ(1, false)
	if err := c.Put([]byte("during"), []byte("y")); err != nil {
		t.Fatalf("write during AZ failure: %v", err)
	}
	if v, ok, err := c.Get([]byte("pre")); err != nil || !ok || string(v) != "x" {
		t.Fatalf("read during AZ failure: %q %v %v", v, ok, err)
	}
}

func TestClusterFailover(t *testing.T) {
	c := newCluster(t, Options{})
	for i := 0; i < 25; i++ {
		if err := c.Put([]byte(fmt.Sprintf("f%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashWriter()
	rep, err := c.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.VDL == 0 || rep.Epoch == 0 {
		t.Fatalf("report %+v", rep)
	}
	if v, ok, err := c.Get([]byte("f13")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read after failover: %q %v %v", v, ok, err)
	}
	if err := c.Put([]byte("post"), []byte("failover")); err != nil {
		t.Fatal(err)
	}
}

func TestClusterReplicas(t *testing.T) {
	c := newCluster(t, Options{})
	r, err := c.AddReplica("one", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("rk"), []byte("rv")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, ok, err := r.Get([]byte("rk"))
		if err != nil {
			t.Fatal(err)
		}
		if ok && string(v) == "rv" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never saw the write")
		}
		time.Sleep(time.Millisecond)
	}
	if r.Lag(c) != 0 {
		// Lag can legitimately be zero or near-zero here; only fail if huge.
		if r.Lag(c) > 1000 {
			t.Fatalf("lag %d", r.Lag(c))
		}
	}
	r.Close()
}

func TestClusterPatch(t *testing.T) {
	c := newCluster(t, Options{})
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	id := c.Proxy().Connect()
	sessions, pause, err := c.Patch(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sessions != 1 {
		t.Fatalf("sessions %d", sessions)
	}
	if pause > time.Second {
		t.Fatalf("pause %v", pause)
	}
	// Data and the session survive; writes work on the patched engine.
	if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read after patch: %q %v %v", v, ok, err)
	}
	if c.Proxy().Sessions() != 1 {
		t.Fatal("session lost")
	}
	_ = id
}

func TestReplicaLimit(t *testing.T) {
	c := newCluster(t, Options{PGs: 1})
	for i := 0; i < 15; i++ {
		if _, err := c.AddReplica(fmt.Sprintf("r%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddReplica("overflow", 0); err == nil {
		t.Fatal("16th replica accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	bad := []Options{
		{PGs: -1},
		{CachePages: -2},
		{LockTimeout: -time.Second},
		{TraceEvery: -3},
		{Network: NetworkProfile(99)},
	}
	for _, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Fatalf("options %+v accepted", o)
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("error %v does not match ErrInvalidOptions", err)
		}
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Field == "" {
			t.Fatalf("error %v is not a field-typed OptionError", err)
		}
	}
	// NewCluster rejects invalid options before provisioning anything.
	if _, err := NewCluster(Options{PGs: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NewCluster with bad options: %v", err)
	}
}

// TestGrowVolumeLive grows the volume while a write workload runs: zero
// failed commits, the geometry epoch advances, and the appended PGs serve
// reads after the rebalance.
func TestGrowVolumeLive(t *testing.T) {
	// The tiny cache plus a dataset spanning many pages forces post-grow
	// reads through to the storage fleet so the per-PG read counters
	// observe them.
	c := newCluster(t, Options{PGs: 2, CachePages: 16})
	pad := make([]byte, 256)
	for i := 0; i < 600; i++ {
		if err := c.Put([]byte(fmt.Sprintf("seed%04d", i)), pad); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop    atomic.Bool
		wErrVal atomic.Value
		wg      sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := []byte(fmt.Sprintf("live-%d-%04d", w, i))
				if err := c.Put(k, []byte("x")); err != nil {
					wErrVal.CompareAndSwap(nil, fmt.Errorf("writer %d: %w", w, err))
					return
				}
			}
		}(w)
	}

	time.Sleep(3 * time.Millisecond)
	rep, err := c.GrowVolume(2)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if e := wErrVal.Load(); e != nil {
		t.Fatalf("write failed during grow: %v", e)
	}
	if len(rep.AddedPGs) != 2 || rep.ToEpoch <= rep.FromEpoch {
		t.Fatalf("growth report %+v", rep)
	}
	s := c.Stats()
	if s.WriteFailures != 0 {
		t.Fatalf("%d failed commits during grow", s.WriteFailures)
	}
	if s.PGs != 4 || s.GeometryEpoch != rep.ToEpoch {
		t.Fatalf("stats after grow: PGs=%d epoch=%d, report %+v", s.PGs, s.GeometryEpoch, rep)
	}
	if rep.StripesMoved == 0 {
		t.Fatalf("no stripes rebalanced: %+v", rep)
	}
	if s.RebalanceStripesMoved == 0 || s.RebalancePagesCopied == 0 {
		t.Fatalf("rebalance counters empty: %+v", s)
	}

	// All data remains readable and the new PGs serve part of it.
	before := clusterNewPGReads(c)
	for i := 0; i < 600; i++ {
		v, ok, err := c.Get([]byte(fmt.Sprintf("seed%04d", i)))
		if err != nil || !ok || len(v) != len(pad) {
			t.Fatalf("seed%04d after grow: %d bytes, %v %v", i, len(v), ok, err)
		}
	}
	if clusterNewPGReads(c)-before == 0 {
		t.Fatal("appended PGs served no reads after rebalance")
	}
}

// clusterNewPGReads sums the segment read counters on PGs 2+.
func clusterNewPGReads(c *Cluster) uint64 {
	var total uint64
	for pg := 2; pg < c.fleet.PGs(); pg++ {
		for _, n := range c.fleet.Replicas(core.PGID(pg)) {
			total += n.Reads()
		}
	}
	return total
}

func TestClusterLogSplit(t *testing.T) {
	c := newCluster(t, Options{PGs: 2, LogSplit: true, CachePages: 8})
	for i := 0; i < 30; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot reads bypass the writer's cache and hit the storage fleet,
	// so they exercise the page tier's read-time catch-up end to end.
	verify := func(ctx string) {
		tx := c.BeginSnapshot()
		defer tx.Abort()
		for i := 1; i < 30; i++ {
			v, ok, err := tx.Get([]byte(fmt.Sprintf("k%02d", i)))
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s: k%02d = %q %v %v", ctx, i, v, ok, err)
			}
		}
	}
	verify("initial")

	// Every page replica of both PGs down: commits must still resolve on
	// the log tier alone.
	for pg := 0; pg < 2; pg++ {
		for r := 3; r < 6; r++ {
			c.CrashStorageNode(pg, r, true)
		}
	}
	if err := c.Put([]byte("k00"), []byte("v0-bis")); err != nil {
		t.Fatalf("commit with page tier down: %v", err)
	}
	for pg := 0; pg < 2; pg++ {
		for r := 3; r < 6; r++ {
			c.CrashStorageNode(pg, r, false)
		}
	}
	if v, ok, err := c.Get([]byte("k00")); err != nil || !ok || string(v) != "v0-bis" {
		t.Fatalf("k00 = %q %v %v", v, ok, err)
	}
	verify("after page-tier outage")

	s := c.Stats()
	if s.LogBytes == 0 {
		t.Fatalf("stats: LogBytes = 0 with commits shipped: %+v", s)
	}
	if s.PageFeedBytes == 0 {
		t.Fatalf("stats: PageFeedBytes = 0 after snapshot reads forced catch-up: %+v", s)
	}
}

func TestClusterPITR(t *testing.T) {
	c := newCluster(t, Options{PGs: 2})
	if err := c.Put([]byte("doc"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if n := c.BackupNow(); n != 12 {
		t.Fatalf("backed up %d segments, want 12", n)
	}
	cutoff := time.Now()
	time.Sleep(5 * time.Millisecond)
	if err := c.Put([]byte("doc"), []byte("v2-oops")); err != nil {
		t.Fatal(err)
	}
	c.BackupNow()

	restored, err := c.RestoreAt("restored", cutoff)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	v, ok, err := restored.Get([]byte("doc"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("restored doc = %q %v %v, want v1", v, ok, err)
	}
	// Restored cluster is independent and writable.
	if err := restored.Put([]byte("doc"), []byte("v3")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = c.Get([]byte("doc"))
	if string(v) != "v2-oops" {
		t.Fatalf("source cluster changed: %q", v)
	}
	// Restoring without a store fails cleanly.
	noStore := newCluster(t, Options{DisableBackup: true})
	if _, err := noStore.RestoreAt("x", time.Now()); err == nil {
		t.Fatal("restore without store accepted")
	}
}
