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

// TestFailoverLeavesNoReplicaPin: a replica left attached through a writer
// crash pins nothing in the new writer's read-point registry. The new
// writer's MRPL reaches its VDL, and a coalescing round collects the log down
// to about what the same history leaves without a replica. While the old
// writer's registry outlived it (the fleet held replica pins), the MRPL stayed
// at the crashed writer's VDL and storage GC froze for good.
func TestFailoverLeavesNoReplicaPin(t *testing.T) {
	held := func(withReplica bool) int {
		c := newCluster(t, Options{PGs: 1})
		put := func(i int) {
			t.Helper()
			if err := c.Put([]byte(fmt.Sprintf("g%02d", i%20)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var r *Replica
		if withReplica {
			var err error
			if r, err = c.AddReplica("left", 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			put(i)
		}
		c.CrashWriter()
		if _, err := c.Failover(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			put(i)
		}
		vol := c.db.Volume()
		if lwm, vdl := vol.LowWaterMark(), vol.VDL(); lwm != vdl {
			t.Fatalf("replica %v: new writer's MRPL %d, its VDL %d", withReplica, lwm, vdl)
		}
		// One more commit carries that MRPL to the replicas; one coalescing
		// round on each then collects everything at or below it.
		put(300)
		var records int
		for i := 0; i < c.fleet.Quorum().V; i++ {
			n := c.fleet.Node(0, i)
			n.CoalesceOnce()
			records += n.Stats().RecordsHeld
		}
		if r != nil {
			deadline := time.Now().Add(5 * time.Second)
			for {
				_, _, err := r.Get([]byte("g00"))
				if errors.Is(err, ErrReplicaClosed) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica of the crashed writer still serves reads: %v", err)
				}
				time.Sleep(time.Millisecond)
			}
		}
		return records
	}
	base, got := held(false), held(true)
	if got > 2*base+60 {
		t.Fatalf("segments hold %d log records with a replica left attached, %d without", got, base)
	}
	t.Logf("log records held after a coalescing round: %d without a replica, %d with one left attached", base, got)
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

// TestReplicaLimitCountsLiveReplicas: the limit is on live replicas, so a
// cluster that added and closed fifteen still accepts a sixteenth. Counting
// every replica ever added refused it with none attached.
func TestReplicaLimitCountsLiveReplicas(t *testing.T) {
	c := newCluster(t, Options{PGs: 1})
	for i := 0; i < 16; i++ {
		r, err := c.AddReplica(fmt.Sprintf("r%d", i), i)
		if err != nil {
			t.Fatalf("replica %d with none live: %v", i, err)
		}
		r.Close()
	}
	if n := c.Stats().ReplicaCount; n != 0 {
		t.Fatalf("%d replicas counted with none live", n)
	}
}

// TestReplicaNeverShowsATornTransfer: a replica applies the records of one
// transaction together (§4.2.4), so no read sees half of a transfer. A writer
// moves amounts between two rows whose sum is 1000 in two-row transactions;
// both rows sit on pages the replica has cached, so the redo is applied to
// them rather than discarded, and every replica Scan must see both rows
// summing to 1000.
func TestReplicaNeverShowsATornTransfer(t *testing.T) {
	c := newCluster(t, Options{PGs: 1})
	a, b := []byte("bal:a"), []byte("bal:b")
	if err := c.Put(a, []byte("500")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, []byte("500")); err != nil {
		t.Fatal(err)
	}
	r, err := c.AddReplica("audit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WarmUp([]byte("bal:"), []byte("bal;")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		werr <- func() error {
			for i := 1; ; i++ {
				select {
				case <-stop:
					return nil
				default:
				}
				tx := c.Begin()
				va, _, err := tx.Get(a)
				if err != nil {
					tx.Abort()
					return err
				}
				x, amount := 0, i%97
				fmt.Sscan(string(va), &x)
				if err := tx.Put(a, []byte(fmt.Sprint(x-amount))); err != nil {
					tx.Abort()
					return err
				}
				if err := tx.Put(b, []byte(fmt.Sprint(1000-x+amount))); err != nil {
					tx.Abort()
					return err
				}
				if err := tx.Commit(); err != nil {
					return err
				}
			}
		}()
	}()
	var torn error
	for i := 0; i < 20000 && torn == nil; i++ {
		rows, sum := 0, 0
		torn = r.Scan([]byte("bal:"), []byte("bal;"), func(k, v []byte) bool {
			x := 0
			fmt.Sscan(string(v), &x)
			rows, sum = rows+1, sum+x
			return true
		})
		if torn == nil && (rows != 2 || sum != 1000) {
			torn = fmt.Errorf("scan %d saw %d rows summing to %d", i, rows, sum)
		}
	}
	close(stop)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		t.Fatal(torn)
	}
	applied := r.inner.Stats().Applied
	if applied == 0 {
		t.Fatal("the replica applied no records: the scans read only storage")
	}
	t.Logf("%d records applied on the replica", applied)
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
