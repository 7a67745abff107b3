package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

// pipelineDB builds an engine on a 1-PG fleet with a caller-chosen LAL and
// returns the network so tests can inject latency.
func pipelineDB(t *testing.T, lal int64, cfg Config) (*netsim.Network, *volume.Fleet, *DB) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "pl", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "pl-writer", WriterAZ: 0, LAL: lal})
	db, err := Create(vol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return net, f, db
}

// TestBackpressureDoesNotBlockReaders is the reader-starvation regression
// test: a commit stalled on LAL back-pressure (the §4.2.1 throttle) must
// not block concurrent Tx.Get/Scan. On the pre-pipeline engine the
// throttled committer blocked inside FrameMTRs while holding the exclusive
// engine latch, so every reader stalled behind it; the pipeline moves the
// stall into the framer stage and the reservation gate, neither of which
// holds the latch.
func TestBackpressureDoesNotBlockReaders(t *testing.T) {
	const ackDelay = 400 * time.Millisecond
	net, f, db := pipelineDB(t, 48, Config{})

	// Seed a row while the fleet is fast, so the reader has something to
	// find and the page is cached.
	if err := db.Put([]byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}

	// Slow every replica's acks: the VDL stalls for ackDelay per exchange,
	// so a burst of commits exhausts the 48-LSN allocation window and the
	// framer blocks on the LAL.
	for _, n := range f.Replicas(0) {
		if err := net.SetNodeDelay(n.NodeID(), ackDelay); err != nil {
			t.Fatal(err)
		}
	}

	// Fire enough commits to exhaust the window (each commit is ~3 records).
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := db.Begin()
			if err := tx.Put([]byte(fmt.Sprintf("bp-%02d", i)), []byte("v")); err != nil {
				return
			}
			tx.Commit() //nolint:errcheck — some may fail if the test ends first
		}(i)
	}
	defer wg.Wait()

	// Give the burst time to pile into the pipeline and hit the LAL.
	time.Sleep(50 * time.Millisecond)

	// Reads must complete promptly even though commits are throttled.
	type res struct {
		ok  bool
		err error
	}
	done := make(chan res, 1)
	go func() {
		tx := db.Begin()
		defer tx.Abort()
		_, ok, err := tx.Get([]byte("k0"))
		if err == nil {
			err = tx.Scan([]byte("k0"), []byte("k1"), func(k, v []byte) bool { return true })
		}
		done <- res{ok: ok, err: err}
	}()
	select {
	case r := <-done:
		if r.err != nil || !r.ok {
			t.Fatalf("reader failed under back-pressure: ok=%v err=%v", r.ok, r.err)
		}
	case <-time.After(ackDelay / 2):
		t.Fatalf("reader blocked behind a back-pressured commit for >%v: the LAL stall is holding the engine latch", ackDelay/2)
	}

	// Un-stall the fleet so the commit backlog drains quickly.
	for _, n := range f.Replicas(0) {
		if err := net.SetNodeDelay(n.NodeID(), 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentCommittersGroupAndSerialize is the pipeline stress test: N
// goroutines commit concurrently and the test asserts (a) serialized
// visibility — every committed row is readable and no aborted/failed write
// leaks, (b) the VDL and highest allocated LSN are monotone throughout,
// and (c) framing critical sections < commits, i.e. group commit actually
// engages with mean framed group size > 1.
func TestConcurrentCommittersGroupAndSerialize(t *testing.T) {
	const (
		committers = 16
		perWorker  = 10
	)
	net, f, db := pipelineDB(t, 0, Config{})
	// A little ack latency widens the in-flight window so queues form and
	// groups grow; it is not load-bearing for correctness.
	for _, n := range f.Replicas(0) {
		if err := net.SetNodeDelay(n.NodeID(), 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// VDL monotonicity watcher.
	stopWatch := make(chan struct{})
	watchErr := make(chan error, 1)
	go func() {
		var last core.LSN
		for {
			select {
			case <-stopWatch:
				watchErr <- nil
				return
			default:
			}
			v := db.VDL()
			if v < last {
				watchErr <- fmt.Errorf("VDL regressed: %d after %d", v, last)
				return
			}
			last = v
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				key := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := tx.Put(key, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				// Read-your-writes through a fresh transaction: the apply
				// stage made the row visible before the ack returned.
				if _, ok, err := db.Get(key); err != nil || !ok {
					errs <- fmt.Errorf("committed row %q not visible: ok=%v err=%v", key, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopWatch)
	if err := <-watchErr; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every committed row is present with the right value.
	for w := 0; w < committers; w++ {
		for i := 0; i < perWorker; i++ {
			key := fmt.Sprintf("w%02d-%03d", w, i)
			v, ok, err := db.Get([]byte(key))
			if err != nil || !ok || string(v) != fmt.Sprintf("val-%d-%d", w, i) {
				t.Fatalf("row %q: %q ok=%v err=%v", key, v, ok, err)
			}
		}
	}

	s := db.Stats()
	commits := committers * perWorker
	if s.Commits != uint64(commits) {
		t.Fatalf("commits %d, want %d", s.Commits, commits)
	}
	// Grouping must actually engage: fewer framing ops than commits, mean
	// framed group size above 1. (Frames includes the Create-time format
	// MTR and the seed rows, so the bound is conservative.)
	if s.Volume.Frames >= s.Commits+2 {
		t.Fatalf("framing ops %d >= commits %d: group commit never engaged", s.Volume.Frames, s.Commits)
	}
	if s.Pipeline.MeanGroupSize <= 1.0 {
		t.Fatalf("mean framed group size %.2f, want > 1 under %d concurrent committers",
			s.Pipeline.MeanGroupSize, committers)
	}
	if s.Pipeline.CommitP50 <= 0 || s.Pipeline.CommitP99 < s.Pipeline.CommitP50 {
		t.Fatalf("commit latency gauges malformed: p50=%v p99=%v", s.Pipeline.CommitP50, s.Pipeline.CommitP99)
	}
	// The volume's LSN space stayed dense and ahead of the VDL.
	if s.Volume.VDL > s.Volume.HighestLSN {
		t.Fatalf("VDL %d above highest allocated LSN %d", s.Volume.VDL, s.Volume.HighestLSN)
	}
	t.Logf("commits=%d frames=%d mean group=%.2f max group=%d p50=%v p95=%v p99=%v",
		s.Commits, s.Volume.Frames, s.Pipeline.MeanGroupSize, s.Pipeline.MaxGroupSize,
		s.Pipeline.CommitP50, s.Pipeline.CommitP95, s.Pipeline.CommitP99)
}

// TestPipelineCommitDurableAtReturn: the WAL-equivalent rule survives the
// pipeline — when Commit returns, VDL >= the transaction's commit record.
func TestPipelineCommitDurableAtReturn(t *testing.T) {
	_, _, db := pipelineDB(t, 0, Config{})
	for i := 0; i < 10; i++ {
		tx := db.Begin()
		if err := tx.Put([]byte(fmt.Sprintf("d%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if db.VDL() < db.Volume().Stats().HighestLSN {
			t.Fatalf("iteration %d: VDL %d below highest LSN %d after commit ack",
				i, db.VDL(), db.Volume().Stats().HighestLSN)
		}
	}
}

// TestPipelineBackpressureBoundsQueue: with a stalled fleet the pipeline's
// reservation gate must hold committers at the configured depth instead of
// queueing unboundedly ahead of storage.
func TestPipelineBackpressureBoundsQueue(t *testing.T) {
	const depth = 4
	net, f, db := pipelineDB(t, 16, Config{CommitQueueDepth: depth})
	for _, n := range f.Replicas(0) {
		if err := net.SetNodeDelay(n.NodeID(), 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3*depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := db.Begin()
			if err := tx.Put([]byte(fmt.Sprintf("q%02d", i)), []byte("v")); err != nil {
				return
			}
			tx.Commit() //nolint:errcheck — released by test cleanup
		}(i)
	}
	defer wg.Wait()
	time.Sleep(50 * time.Millisecond)
	if q := db.Stats().Pipeline.QueuedCommits; q > depth {
		t.Fatalf("queued commits %d exceed configured depth %d", q, depth)
	}
	for _, n := range f.Replicas(0) {
		if err := net.SetNodeDelay(n.NodeID(), 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaxInflightGroupsConfig verifies the batching budgets default to 64
// commits per group and 4 groups in flight, and that an out-of-range sweep
// value reaches the pipeline unclamped (ablations get exactly what they
// asked for).
func TestMaxInflightGroupsConfig(t *testing.T) {
	_, db := testDB(t, Config{})
	if p := db.pipeline; p.maxGroup != 64 || p.maxInflight != 4 {
		t.Fatalf("zero config: group %d, inflight %d; want defaults 64, 4", p.maxGroup, p.maxInflight)
	}

	_, db2 := testDB(t, Config{MaxCommitGroup: 1, MaxInflightGroups: 100})
	if p := db2.pipeline; p.maxGroup != 1 || p.maxInflight != 100 {
		t.Fatalf("MaxCommitGroup=1, MaxInflightGroups=100 sweep reached the pipeline as %d, %d", p.maxGroup, p.maxInflight)
	}
	// Commits still work at the extreme settings.
	for i := 0; i < 10; i++ {
		if err := db2.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}
