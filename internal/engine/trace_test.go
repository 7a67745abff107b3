package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/trace"
	"aurora/internal/volume"
)

// tracedDB builds a DB on a network with real (scaled-down) latencies and
// NVMe-modelled disks so stage durations are visible, sampling every commit.
func tracedDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	net := netsim.New(netsim.Config{IntraAZ: 200 * time.Microsecond, CrossAZ: time.Millisecond})
	f, err := volume.NewFleet(volume.FleetConfig{Name: "tr", Geometry: core.UniformGeometry(4), Net: net, Disk: disk.NVMe()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	if cfg.TraceEvery == 0 {
		cfg.TraceEvery = 1
	}
	db, err := Create(vol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func lastCommitTrace(t *testing.T, db *DB) *trace.Trace {
	t.Helper()
	var last *trace.Trace
	for _, tr := range db.Tracer().Traces() {
		if tr.RootName() == "commit" {
			last = tr
		}
	}
	if last == nil {
		t.Fatal("no commit trace collected")
	}
	return last
}

// TestCommitTraceCoversEveryStage is the acceptance check for the tracing
// tentpole: a sampled commit's trace must contain a span for every stage of
// the write path — latch, queue wait, framing, per-replica network + disk,
// quorum wait, VDL wait — and its critical path must decompose the measured
// end-to-end commit latency to within 10%.
func TestCommitTraceCoversEveryStage(t *testing.T) {
	db := tracedDB(t, Config{})

	tx := db.Begin()
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	snap := lastCommitTrace(t, db).Snapshot()
	for _, stage := range []string{
		"commit.reserve", // back-pressure gate
		"commit.latch",   // exclusive latch wait
		"commit.apply",   // btree apply
		"commit.queue",   // apply→framer queue wait
		"group.frame",    // LSN allocation critical section
		"group.stamp",    // page LSN stamping + feed publish
		"group.ship",     // ship + quorum
		"batch.ship",     // one per framed batch
		"replica.flight", // per-replica delivery
		"net.req",        // network hop to the storage node
		"storage.ingest", // storage node receive
		"disk.write",     // durable hot-log append (write with FUA)
		"storage.apply",  // ingest into the log
		"net.ack",        // ack hop back
		"quorum.wait",    // 4/6 tracker resolution
		"vdl.wait",       // durability wait
	} {
		if snap.Find(stage) == nil {
			t.Errorf("commit trace missing stage %q", stage)
		}
	}
	// A flight says how long its batch sat in the sender's queue and how many
	// flights of that pipeline were already out.
	if fl := snap.Find("replica.flight"); fl != nil && (fl.Attr("queued_us") == "" || fl.Attr("in_air") == "") {
		t.Errorf("replica.flight annotated queued_us=%q in_air=%q, want both", fl.Attr("queued_us"), fl.Attr("in_air"))
	}
	// A storage node's filing step says how much of it was the wait for the
	// node's lock.
	if ap := snap.Find("storage.apply"); ap != nil && ap.Attr("lock_wait_us") == "" {
		t.Errorf("storage.apply not annotated with lock_wait_us")
	}
	if t.Failed() {
		t.Fatalf("trace:\n%s", lastCommitTrace(t, db).Render())
	}

	// The critical path sums exactly to the root span by construction; the
	// root span must itself cover the measured commit latency to within 10%
	// (plus a small absolute slack for scheduler noise outside the span).
	segs := trace.CriticalPath(snap)
	pathSum := trace.PathTotal(segs)
	if pathSum != snap.Duration() {
		t.Fatalf("critical path %v != root duration %v", pathSum, snap.Duration())
	}
	diff := elapsed - pathSum
	if diff < 0 {
		diff = -diff
	}
	if diff > elapsed/10+300*time.Microsecond {
		t.Fatalf("critical path %v vs measured commit %v: off by %v", pathSum, elapsed, diff)
	}
}

// TestGroupedCommitTracesDecompose drives concurrent committers so groups
// form, and checks that every sampled commit still decomposes: the group's
// adopter carries the detailed stage spans, every other member carries a
// group.inflight span covering its ride.
func TestGroupedCommitTracesDecompose(t *testing.T) {
	db := tracedDB(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := db.Put([]byte(key), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var adopters, riders int
	for _, tr := range db.Tracer().Traces() {
		if tr.RootName() != "commit" {
			continue
		}
		snap := tr.Snapshot()
		switch {
		case snap.Find("group.frame") != nil:
			adopters++
		case snap.Find("group.inflight") != nil:
			riders++
		default:
			t.Fatalf("commit trace carries neither detailed group spans nor group.inflight:\n%s", tr.Render())
		}
	}
	if adopters == 0 {
		t.Fatal("no adopter traces collected")
	}
	if db.Stats().Pipeline.MaxGroupSize > 1 && riders == 0 {
		t.Log("groups formed but every sampled member adopted; acceptable, just unlikely")
	}
	// Stage aggregation must have seen the whole write path.
	stages := map[string]bool{}
	for _, s := range db.Tracer().Stages() {
		stages[s.Name] = true
	}
	for _, want := range []string{"commit", "group.frame", "replica.flight", "quorum.wait", "vdl.wait"} {
		if !stages[want] {
			t.Errorf("stage aggregation missing %q", want)
		}
	}
}

// TestReadTraceHasPerAttemptSpans checks the read path: a snapshot read
// bypasses the cache, so it must produce a read.page trace with at least
// one read.attempt child carrying the network and storage-read spans.
func TestReadTraceHasPerAttemptSpans(t *testing.T) {
	db := tracedDB(t, Config{})
	if err := db.Put([]byte("r"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	snapTx := db.BeginSnapshot()
	defer snapTx.Abort()
	if _, ok, err := snapTx.Get([]byte("r")); err != nil || !ok {
		t.Fatalf("snapshot get: %v %v", ok, err)
	}

	var read *trace.Trace
	for _, tr := range db.Tracer().Traces() {
		if tr.RootName() == "read.page" {
			read = tr
		}
	}
	if read == nil {
		t.Fatal("no read.page trace collected")
	}
	snap := read.Snapshot()
	for _, stage := range []string{"read.attempt", "net.req", "storage.read", "net.resp"} {
		if snap.Find(stage) == nil {
			t.Fatalf("read trace missing %q:\n%s", stage, read.Render())
		}
	}
}

// TestTracingOffLeavesNoTraces confirms the default config samples nothing.
func TestTracingOffLeavesNoTraces(t *testing.T) {
	_, db := testDB(t, Config{})
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(db.Tracer().Traces()); got != 0 {
		t.Fatalf("sampling off but %d traces collected", got)
	}
	if st := db.Stats().Trace; st.Started != 0 {
		t.Fatalf("sampling off but %d traces started", st.Started)
	}
}
