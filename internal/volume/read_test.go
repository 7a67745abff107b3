package volume

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/trace"
)

// Behaviour a replica reader inherits from sharing the writer's read path
// (Fleet.readPage): stale-geometry re-routing and known-behind demotion.

// TestReaderReroutesAcrossCutover issues a reader's page read under a
// pre-cutover epoch and flips stripes while its request is on the wire. The
// storage nodes have learned the new epochs by the time the request lands and
// refuse it with ErrStaleGeometry; the read must reload the routing table and
// succeed, not surface the nack. The network's sleeper hook makes the
// interleaving exact: only hops touching the reader are delayed, and the
// first such hop — the net.req of an attempt that already loaded the old
// epoch — runs Client.Grow to completion before the request is delivered.
func TestReaderReroutesAcrossCutover(t *testing.T) {
	f, c := testVolume(t, 2)
	const pages = 64
	for i := 0; i < pages; i++ {
		writePage(t, c, core.PageID(i), fmt.Sprintf("v%03d", i))
	}
	readPoint := c.VDL()

	r, pinned := NewReader(c, "replica-reader", 1)
	defer r.Close()
	if pinned != readPoint {
		t.Fatalf("reader pinned %d, want the VDL %d", pinned, readPoint)
	}

	var (
		once    sync.Once
		growErr error
	)
	f.Net().SetSleeper(func(time.Duration) {
		once.Do(func() { _, growErr = c.Grow(1) })
	})
	if err := f.Net().SetNodeDelay("replica-reader", time.Microsecond); err != nil {
		t.Fatal(err)
	}
	e0 := f.Geometry().Epoch()

	const id = core.PageID(7)
	required := c.DurableTail(f.PGOfAt(id, readPoint))
	p, err := r.ReadPageAt(context.Background(), id, readPoint, required)
	if growErr != nil {
		t.Fatalf("grow: %v", growErr)
	}
	if f.Geometry().Epoch() == e0 {
		t.Fatal("no cutover happened while the read was in flight")
	}
	if err != nil {
		t.Fatalf("read across cutover: %v", err)
	}
	if got := string(p.Payload()[:4]); got != "v007" {
		t.Fatalf("read %q, want %q", got, "v007")
	}
	if n := r.pageReads.geomRetries.Load(); n == 0 {
		t.Fatal("read was never nacked for stale geometry: the test did not exercise the re-route")
	}
}

// TestReaderDemotesKnownBehindReplica leaves the replica that health and
// locality would order first one write behind, with the fleet knowing it
// (its last piggybacked SCL trails the peers'). The reader must start with a
// known-complete replica: the read succeeds without a single refused attempt.
func TestReaderDemotesKnownBehindReplica(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 3, "old")

	// Replica 0 misses the second write; the other five ack it. Draining its
	// sender before the restart waits out the redelivery schedule, so no
	// late retry can land the batch after all.
	behind := f.Node(0, 0)
	behind.Crash()
	writePage(t, c, 3, "new")
	(*c.senders.Load())[0][0].drain()
	behind.Restart()
	required := c.DurableTail(0)
	if behind.SCL() >= required {
		t.Fatalf("replica 0 SCL %d, want behind %d", behind.SCL(), required)
	}
	// Forgive the failed deliveries: by health score alone replica 0 is now
	// the reader's first choice (same AZ, healthy, no latency memory).
	f.Health().Reset(0, 0)
	if got := f.Health().Order(0, f.Replicas(0), 0, 0)[0]; got != 0 {
		t.Fatalf("health order leads with replica %d, want 0", got)
	}

	r, _ := NewReader(c, "replica-reader", 0)
	defer r.Close()
	col := trace.NewCollector(4)
	col.SetSampleEvery(1)
	sp := col.Start("test.read")
	p, err := r.ReadPageAt(trace.NewContext(context.Background(), sp), 3, c.VDL(), required)
	sp.End()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := string(p.Payload()[:3]); got != "new" {
		t.Fatalf("read %q, want %q", got, "new")
	}
	attempts, refused := 0, 0
	col.Traces()[0].Snapshot().Walk(func(si *trace.SpanInfo) {
		if si.Name != "read.attempt" {
			return
		}
		attempts++
		if si.Attr("err") != "" {
			refused++
		}
	})
	if attempts == 0 {
		t.Fatal("trace recorded no read attempts")
	}
	if refused != 0 {
		t.Fatalf("%d of %d attempts refused: the known-behind replica was tried first", refused, attempts)
	}
	if behind.Reads() != 0 {
		t.Fatal("the behind replica served the read")
	}
}

// TestReaderCloseUnwindsParkedRead parks a reader's page read in a network hop
// (every hop touching the reader takes a second) and closes the reader: Close
// must return at once, the read must fail rather than wait out its hops, and
// no attempt, hedge or timer goroutine may stay behind. The reader's lifetime
// is joined to the read through the read's own context, not a per-read one.
func TestReaderCloseUnwindsParkedRead(t *testing.T) {
	f, c := testVolume(t, 1)
	writePage(t, c, 3, "v")
	r, _ := NewReader(c, "replica-reader", 0)
	if err := f.Net().SetNodeDelay("replica-reader", time.Second); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	errc := make(chan error, 1)
	go func() {
		_, err := r.ReadPageAt(context.Background(), 3, c.VDL(), c.DurableTail(0))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // the read and its hedges are on the wire
	start := time.Now()
	r.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a read parked in a hop", d)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("the parked read returned a page after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("the parked read did not return after Close")
	}
	if g := settleGoroutines(base); g > base {
		t.Fatalf("%d goroutines after Close, %d before the read", g, base)
	}
}
