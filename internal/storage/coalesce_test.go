package storage

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/page"
)

// Contracts of in-place coalescing: what a reader is served never depends on
// whether, when or how far the base under it was folded.

// coalesceLoad frames a redo stream over pages 1..pages of PG 0 — one MTR of
// full-page images so every page exists, then mtrs MTRs of one to three small
// random deltas — and returns the wire views in LSN order together with each
// page's complete record history, the reference a served page is held to.
// The framer comes back too, for tests that extend the stream by hand.
func coalesceLoad(t testing.TB, seed int64, mtrs, pages int) ([]core.BatchView, map[core.PageID][]*core.Record, *core.Framer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	history := make(map[core.PageID][]*core.Record)
	var views []core.BatchView
	add := func(m *core.MTR) {
		v := frame(t, f, m)[0]
		if err := v.EachRecord(func(r *core.Record) bool {
			cl := r.Clone()
			history[cl.Page] = append(history[cl.Page], &cl)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	m := &core.MTR{Txn: 1}
	for id := 1; id <= pages; id++ {
		image := make([]byte, page.PayloadSize)
		rng.Read(image)
		m.AddInit(0, core.PageID(id), image)
	}
	add(m)
	for i := 0; i < mtrs; i++ {
		m := &core.MTR{Txn: uint64(i + 2)}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			data := make([]byte, 1+rng.Intn(16))
			rng.Read(data)
			m.AddDelta(0, core.PageID(1+rng.Intn(pages)), uint32(rng.Intn(page.PayloadSize-len(data))), data)
		}
		add(m)
	}
	return views, history, f
}

// sameImage compares what a page says — id, LSN, payload — leaving out the
// CRC field: a read response carries the CRC of the base it was materialized
// from, which names that base and not the response.
func sameImage(a, b page.Page) bool {
	return a.ID() == b.ID() && a.LSN() == b.LSN() && bytes.Equal(a.Payload(), b.Payload())
}

// TestCoalesceInPlaceUnderConcurrentReads: readers at read points between the
// PGMRPL and the tail, while ingest and coalescing run flat out, must pass
// the node's CRC gate every time (no reader ever sees a base mid-fold) and be
// served exactly the page the full record history gives at their read point.
// Run under -race -count=10 by `make race`.
func TestCoalesceInPlaceUnderConcurrentReads(t *testing.T) {
	const pages, readers, lag = 6, 3, 8
	_, nodes := testPG(t, nil)
	n := nodes[0]
	views, history, _ := coalesceLoad(t, 1, 400, pages)
	ctx := context.Background()

	// The writer's bookkeeping, as the volume client keeps it: the PGMRPL
	// trails the tail and never passes a read point still in use.
	var (
		mu         sync.Mutex
		tail, mrpl core.LSN
		inUse      [readers]core.LSN // 0 = idle
		reads      int
		done       bool
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ingest
		defer wg.Done()
		for i, v := range views {
			// Paced by the readers, so that reads interleave with the whole
			// stream however the scheduler treats this goroutine.
			mu.Lock()
			for reads < 2*i && !t.Failed() {
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
			}
			low := mrpl
			mu.Unlock()
			if _, err := receiveBatch(n, ctx, v, v.Last(), low); err != nil {
				t.Error(err)
				break
			}
			mu.Lock()
			tail = v.Last()
			if tail > lag {
				next := tail - lag
				for _, rp := range inUse {
					if rp != 0 && rp < next {
						next = rp
					}
				}
				if next > mrpl {
					mrpl = next
				}
			}
			mu.Unlock()
		}
		mu.Lock()
		done = true
		mu.Unlock()
	}()
	wg.Add(1)
	go func() { // coalesce
		defer wg.Done()
		for {
			n.CoalesceOnce()
			mu.Lock()
			stop := done
			mu.Unlock()
			if stop {
				return
			}
			runtime.Gosched()
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				mu.Lock()
				if done {
					mu.Unlock()
					return
				}
				if tail == 0 {
					mu.Unlock()
					runtime.Gosched()
					continue
				}
				floor := mrpl
				if floor == 0 {
					floor = 1
				}
				rp := floor + core.LSN(rng.Int63n(int64(tail-floor)+1))
				inUse[r] = rp
				mu.Unlock()

				id := core.PageID(1 + rng.Intn(pages))
				got, err := n.ReadPage(ctx, id, rp, rp)
				if err != nil {
					t.Errorf("page %d at read point %d: %v", id, rp, err)
				} else if want, _ := page.Materialize(id, nil, history[id], rp); !sameImage(got, want) {
					t.Errorf("page %d at read point %d: served LSN %d, history gives LSN %d (payload equal: %v)",
						id, rp, got.LSN(), want.LSN(), bytes.Equal(got.Payload(), want.Payload()))
				}
				mu.Lock()
				inUse[r] = 0
				reads++
				mu.Unlock()
				if t.Failed() {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Drain: with the PGMRPL at the tail everything folds and is collected.
	last := views[len(views)-1].Last()
	if _, _, err := n.Ingest(ctx, nil, last, last, nil); err != nil {
		t.Fatal(err)
	}
	n.CoalesceOnce()
	if got := n.GCTail(); got != last {
		t.Fatalf("GC tail %d after the drain, want %d", got, last)
	}
	for id := core.PageID(1); id <= pages; id++ {
		got, err := n.ReadPage(ctx, id, last, last)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.VerifyChecksum(); err != nil {
			t.Fatalf("page %d fully folded: %v", id, err)
		}
		if want, _ := page.Materialize(id, nil, history[id], last); !sameImage(got, want) {
			t.Fatalf("page %d fully folded differs from its history", id)
		}
	}
}

// TestCoalesceAbortedRoundChangesNothing: a round that meets a malformed
// record collects nothing, cuts no chain and changes no served page, however
// many bases it had already folded in place when it met it (map order makes
// that differ from round to round).
func TestCoalesceAbortedRoundChangesNothing(t *testing.T) {
	const pages = 5
	_, nodes := testPG(t, nil)
	n := nodes[0]
	ctx := context.Background()
	views, _, f := coalesceLoad(t, 2, 60, pages)
	half := views[len(views)/2].Last()
	for _, v := range views {
		if _, err := receiveBatch(n, ctx, v, v.Last(), half); err != nil {
			t.Fatal(err)
		}
	}
	if adv := n.CoalesceOnce(); adv != pages {
		t.Fatalf("first round advanced %d pages, want %d", adv, pages)
	}

	// One delta that runs off the end of page 3, then healthy ones on every
	// page above it, all at or below the next safe point.
	m := &core.MTR{Txn: 1000}
	m.AddDelta(0, 3, page.PayloadSize-2, []byte("overrun!"))
	for id := 1; id <= pages; id++ {
		m.AddDelta(0, core.PageID(id), 100, []byte{byte(id)})
	}
	bad := frame(t, f, m)[0]
	tail := bad.Last()
	if _, err := receiveBatch(n, ctx, bad, tail, tail-1); err != nil {
		t.Fatal(err)
	}

	type served struct {
		img page.Page
		err bool
	}
	observe := func() (core.LSN, int, []int, []served) {
		var chains []int
		var reads []served
		for id := core.PageID(1); id <= pages; id++ {
			chains = append(chains, n.ChainLength(id))
			for _, rp := range []core.LSN{tail - 1, tail} {
				p, err := n.ReadPage(ctx, id, rp, rp)
				if errors.Is(err, ErrCorruptPage) {
					t.Fatalf("page %d: a base folded part of the way no longer verifies: %v", id, err)
				}
				reads = append(reads, served{p, err != nil})
			}
		}
		return n.GCTail(), n.Stats().RecordsHeld, chains, reads
	}
	gc0, held0, chains0, reads0 := observe()
	if !reads0[2*2].err || reads0[0].err {
		t.Fatalf("setup: page 3 should be unreadable (%v) and page 1 readable (%v)", reads0[4].err, reads0[0].err)
	}
	for round := 0; round < 8; round++ {
		if adv := n.CoalesceOnce(); adv != 0 {
			t.Fatalf("round %d advanced %d pages past a malformed record", round, adv)
		}
		gc, held, chains, reads := observe()
		if gc != gc0 || held != held0 {
			t.Fatalf("round %d: GC tail %d -> %d, records held %d -> %d", round, gc0, gc, held0, held)
		}
		for i := range chains {
			if chains[i] != chains0[i] {
				t.Fatalf("round %d: page %d chain %d -> %d", round, i+1, chains0[i], chains[i])
			}
		}
		for i := range reads {
			if reads[i].err != reads0[i].err || (!reads[i].err && !sameImage(reads[i].img, reads0[i].img)) {
				t.Fatalf("round %d: read %d of page %d changed", round, i%2, i/2+1)
			}
		}
	}
}

// steadyCoalesceNode returns a node whose `pages` pages all have a base, and
// a function that files one more delta per page and moves the PGMRPL over
// them, so the next CoalesceOnce has exactly one record to fold per page.
func steadyCoalesceNode(tb testing.TB, pages int) (*Node, func()) {
	tb.Helper()
	n := NewNode(Config{Seg: core.SegmentID{PG: 0}, Node: "steady", Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	ctx := context.Background()
	round := 0
	feed := func() {
		m := &core.MTR{Txn: uint64(round + 1)}
		for id := 1; id <= pages; id++ {
			m.AddDelta(0, core.PageID(id), uint32(round*8%page.PayloadSize), []byte{byte(round), 1, 2, 3, 4, 5, 6, 7})
		}
		round++
		v := frame(tb, f, m)[0]
		if _, err := receiveBatch(n, ctx, v, v.Last(), v.Last()); err != nil {
			tb.Fatal(err)
		}
	}
	feed()
	if adv := n.CoalesceOnce(); adv != pages {
		tb.Fatalf("first round advanced %d pages, want %d", adv, pages)
	}
	return n, feed
}

// TestCoalesceRoundSteadyStateAllocs pins a coalesce round over pages that
// already have a base at zero objects: the fold is in place, and the chains,
// the log and the dirty list slide inside their arrays.
func TestCoalesceRoundSteadyStateAllocs(t *testing.T) {
	const pages, runs = 32, 50
	n, feed := steadyCoalesceNode(t, pages)
	// File every round's records up front and let each measured round move
	// the PGMRPL over one more record per page, so only coalescing is counted.
	low := n.GCTail()
	for i := 0; i < runs+2; i++ {
		feed()
	}
	n.mu.Lock()
	n.pgmrpl = low
	n.mu.Unlock()
	round := func() {
		n.mu.Lock()
		n.pgmrpl += pages
		n.mu.Unlock()
		if adv := n.CoalesceOnce(); adv != pages {
			t.Fatalf("round advanced %d pages, want %d", adv, pages)
		}
	}
	round()
	if avg := testing.AllocsPerRun(runs, round); avg != 0 {
		t.Fatalf("a steady-state coalesce round over %d pages allocates %.0f objects, want 0", pages, avg)
	}
	checkDirtyList(t, n, "after the steady-state rounds")
}

// TestCoalesceIdleRoundCostsNothingHeld: a round costs what changed, not
// what the node holds. With 10 000 pages held and none of them dirty, a round
// that gets past the nothing-new guard — the PGMRPL is above the GC tail, as
// it is on any PG whose last records other PGs' LSNs have overtaken — must
// allocate nothing and finish in well under the time it takes to range over
// the page map even once (some hundreds of microseconds at this size; fifty
// rounds a second on every node of a fleet is where that went).
func TestCoalesceIdleRoundCostsNothingHeld(t *testing.T) {
	const pages = 10_000
	n, _ := steadyCoalesceNode(t, pages)
	tail := n.GCTail()
	// One transaction-metadata record well above the PGMRPL: nothing to fold,
	// nothing to collect, and safe (= PGMRPL) stays above the GC tail.
	meta := craft(t, core.Record{LSN: tail + 10, PrevLSN: tail, Type: core.RecTxnCommit, PG: 0})
	if _, err := receiveBatch(n, context.Background(), meta, tail+10, tail+5); err != nil {
		t.Fatal(err)
	}
	round := func() {
		if adv := n.CoalesceOnce(); adv != 0 {
			t.Fatalf("idle round advanced %d pages", adv)
		}
	}
	round()
	if s := n.Stats(); s.PagesHeld != pages || s.RecordsHeld != 1 || n.GCTail() != tail {
		t.Fatalf("setup: %d pages and %d records held, GC tail %d; want %d, 1 and %d", s.PagesHeld, s.RecordsHeld, n.GCTail(), pages, tail)
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("an idle round over %d held pages allocates %.0f objects, want 0", pages, avg)
	}
	// The quickest of a few batches, so that a preempted one does not count.
	const rounds, limit = 200, 5 * time.Microsecond
	best := time.Hour
	for batch := 0; batch < 5; batch++ {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			round()
		}
		best = min(best, time.Since(start)/rounds)
	}
	if best > limit {
		t.Fatalf("an idle round over %d held pages takes %v, want under %v: it is looking at pages that have no chain", pages, best, limit)
	}
}

func BenchmarkCoalesceRound(b *testing.B) {
	const pages = 32
	n, feed := steadyCoalesceNode(b, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		feed()
		b.StartTimer()
		if adv := n.CoalesceOnce(); adv != pages {
			b.Fatalf("round advanced %d pages, want %d", adv, pages)
		}
	}
	b.ReportMetric(pages, "pages/op")
}

// BenchmarkNodeReadPage is the storage half of a cache miss: one page read at
// the tail over a coalesced base with a short chain on top, into the caller's
// frame, cycling through more pages than fit in cache so the base is cold as
// it is in service.
func BenchmarkNodeReadPage(b *testing.B) {
	const pages = 4096 // 16 MB of bases
	n, feed := steadyCoalesceNode(b, pages)
	feed()
	feed() // a chain of two on every page
	ctx := context.Background()
	tail := n.SCL()
	frame := page.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.ReadPageChecked(ctx, core.PageID(1+i*61%pages), tail, tail, 0, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadBetweenBaseAndTailMatchesHistory: a read at every read point from
// the base's LSN to the tail is the page the full record history gives at
// that point — the fold onto the verified copy stops where Materialize does.
func TestReadBetweenBaseAndTailMatchesHistory(t *testing.T) {
	const pages = 4
	_, nodes := testPG(t, nil)
	n := nodes[0]
	ctx := context.Background()
	views, history, _ := coalesceLoad(t, 5, 80, pages)
	half, tail := views[len(views)/2].Last(), views[len(views)-1].Last()
	for _, v := range views {
		if _, err := receiveBatch(n, ctx, v, v.Last(), half); err != nil {
			t.Fatal(err)
		}
	}
	if adv := n.CoalesceOnce(); adv != pages {
		t.Fatalf("round advanced %d pages, want %d", adv, pages)
	}
	for id := core.PageID(1); id <= pages; id++ {
		if n.ChainLength(id) == 0 {
			t.Fatalf("setup: page %d has no chain above its base", id)
		}
		for rp := half; rp <= tail; rp++ {
			got, err := n.ReadPage(ctx, id, rp, rp)
			if err != nil {
				t.Fatalf("page %d at %d: %v", id, rp, err)
			}
			want, err := page.Materialize(id, nil, history[id], rp)
			if err != nil {
				t.Fatal(err)
			}
			if !sameImage(got, want) {
				t.Fatalf("page %d at read point %d: served LSN %d, history gives LSN %d", id, rp, got.LSN(), want.LSN())
			}
		}
	}
}

// TestCorruptBaseNeverReachesAResponse: the CRC gate runs on the copy the
// read would serve, before anything is folded onto it. Whatever the read
// point, a corrupt base is refused, counted, and no page comes back.
func TestCorruptBaseNeverReachesAResponse(t *testing.T) {
	nodes := scrubPG(t) // base at 5, chain 6..8
	victim := nodes[0]
	if !victim.CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}
	for i, rp := range []core.LSN{5, 6, 7, 8} {
		p, err := victim.ReadPage(context.Background(), 1, rp, 0)
		if !errors.Is(err, ErrCorruptPage) || p != nil {
			t.Fatalf("read point %d over a corrupt base: page %v, err %v; want no page and ErrCorruptPage", rp, p != nil, err)
		}
		if got := victim.Stats().CorruptReads; got != uint64(i+1) {
			t.Fatalf("CorruptReads = %d after %d refused reads", got, i+1)
		}
	}
	if got := victim.Stats().Reads; got != 0 {
		t.Fatalf("%d reads counted as served", got)
	}
}
