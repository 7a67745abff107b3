package volume

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"aurora/internal/core"
	"aurora/internal/quorum"
)

// The TestAckWindow* and TestPGTailTracker names are older than the type
// they now test: each case moved, one for one, onto the durability window
// that replaced the per-LSN ack window and the per-PG tail tracker.

// testGroup builds a window entry the way Client.frame does, without a
// framer: record i of the group has LSN first+i and belongs to pgs[i], and
// the batches are the per-PG merges in first-touch order.
func testGroup(first core.LSN, pgs ...core.PGID) *GroupWrite {
	g := &GroupWrite{first: first, last: first + core.LSN(len(pgs)) - 1}
	for i, pg := range pgs {
		lsn := first + core.LSN(i)
		bi := 0
		for bi < len(g.batches) && g.batches[bi].pg != pg {
			bi++
		}
		if bi == len(g.batches) {
			g.batches = append(g.batches, groupBatch{pg: pg})
		}
		g.batches[bi].last = lsn
	}
	g.unresolved = len(g.batches)
	return g
}

func TestAckWindowFrontierAndVDL(t *testing.T) {
	w := newDurableWindow(0, nil)
	g1, g2 := testGroup(1, 0, 0, 0), testGroup(4, 0, 0)
	w.register(g1)
	w.register(g2)
	// Quorums resolve out of order: 4-5 first, then 1-3.
	if vdl, settled, quorate := w.resolve(g2, false); vdl != 0 || settled != nil || !quorate {
		t.Fatalf("vdl %d, settled %v, quorate %v before the prefix resolved", vdl, settled, quorate)
	}
	if w.backlog() != 2 {
		t.Fatalf("backlog %d with both groups unretired", w.backlog())
	}
	vdl, settled, quorate := w.resolve(g1, false)
	if vdl != 5 || !quorate {
		t.Fatalf("vdl %d, quorate %v; want 5 (both groups covered) on g1's only quorum", vdl, quorate)
	}
	if settled != g1 || g1.next != g2 || g2.next != nil || g1.err != nil || g2.err != nil {
		t.Fatalf("settled %v -> %v (%v, %v), want both groups durable in LSN order", settled, g1.next, g1.err, g2.err)
	}
	if w.backlog() != 0 {
		t.Fatalf("backlog %d", w.backlog())
	}
}

func TestAckWindowVDLOnlyAtCPLs(t *testing.T) {
	w := newDurableWindow(0, nil)
	// One group, LSNs 1-4: pg0 holds 1-3, pg1 holds 4, the group's CPL.
	g := testGroup(1, 0, 0, 0, 1)
	w.register(g)
	if vdl, settled, _ := w.resolve(g, false); vdl != 0 || settled != nil {
		t.Fatalf("vdl %d settled %v: LSN 3 is not the group's CPL", vdl, settled)
	}
	if tail := w.durableTail(0); tail != 0 {
		t.Fatalf("pg0 tail %d published before the VDL covers it", tail)
	}
	if vdl, settled, _ := w.resolve(g, false); vdl != 4 || settled != g {
		t.Fatalf("vdl %d settled %v, want 4 and the group", vdl, settled)
	}
}

func TestAckWindowSeededStart(t *testing.T) {
	w := newDurableWindow(100, nil)
	g := testGroup(101, 0, 0)
	w.register(g)
	if vdl, _, _ := w.resolve(g, false); vdl != 102 {
		t.Fatalf("vdl %d after recovery-seeded window", vdl)
	}
}

// windowOracle is the brute-force model the property test compares the
// window with: per LSN, whether the record's own batch reached its quorum.
type windowOracle struct {
	start   core.LSN
	seed    map[core.PGID]core.LSN
	pgOf    map[core.LSN]core.PGID
	durable map[core.LSN]bool
	ends    map[core.LSN]bool // LSNs that end a registered group
}

// vdl is the highest group end at or below the longest prefix of LSNs that
// are all on their quorum.
func (o *windowOracle) vdl() core.LSN {
	v := o.start
	for l := o.start + 1; o.durable[l]; l++ {
		if o.ends[l] {
			v = l
		}
	}
	return v
}

func (o *windowOracle) tail(pg core.PGID) core.LSN {
	tail := o.seed[pg]
	for l, v := o.start+1, o.vdl(); l <= v; l++ {
		if o.pgOf[l] == pg {
			tail = l
		}
	}
	return tail
}

// Property: for random groups with random PG interleavings, registered with
// random inversions and resolved batch by batch in random order — up to two
// batches failing for good, and the window sometimes abandoned half way — the
// window's VDL, every durable tail and the backlog equal the brute-force
// oracle's after every step, and every group is settled exactly once, by the
// step that decides it, with the outcome the oracle expects: durable once the
// VDL covers it, failed as soon as it or a group ahead of it has a batch that
// cannot reach its quorum (refused outright if it registers after that),
// abandoned if it is still pending when the window is.
func TestAckWindowPermutationProperty(t *testing.T) {
	const pgs = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := &windowOracle{
			start: core.LSN(rng.Intn(2) * 100), seed: map[core.PGID]core.LSN{},
			pgOf: map[core.LSN]core.PGID{}, durable: map[core.LSN]bool{}, ends: map[core.LSN]bool{},
		}
		if o.start > 0 {
			for pg := core.PGID(0); pg < pgs; pg++ {
				o.seed[pg] = core.LSN(rng.Intn(int(o.start) + 1))
			}
		}
		w := newDurableWindow(o.start, o.seed)
		var unregistered []*GroupWrite
		next := o.start + 1
		for n := rng.Intn(12) + 1; n > 0; n-- {
			rec := make([]core.PGID, rng.Intn(6)+1)
			for i := range rec {
				rec[i] = core.PGID(rng.Intn(pgs))
				o.pgOf[next+core.LSN(i)] = rec[i]
			}
			unregistered = append(unregistered, testGroup(next, rec...))
			next += core.LSN(len(rec))
		}
		type batchRef struct {
			g  *GroupWrite
			bi int
		}
		var shipped []*GroupWrite // every group that tried to register
		var open []batchRef
		failures := rng.Intn(3)
		abandonAt := rng.Intn(60) // in steps; most runs end first
		var pin core.LSN          // the oracle's: first LSN of the lowest group with a failed batch
		abandoned := false
		outcomes := map[*GroupWrite]error{}
		// settle records what one window call settled.
		settle := func(step string, head *GroupWrite) bool {
			var prev core.LSN
			for g := head; g != nil; g = g.next {
				if _, dup := outcomes[g]; dup || !g.settled || g.first <= prev {
					t.Logf("seed %d after %s: group %d settled twice, unmarked or out of order", seed, step, g.first)
					return false
				}
				outcomes[g], prev = g.err, g.first
			}
			return true
		}
		check := func(step string) bool {
			want := o.vdl()
			got := w.VDL()
			if got != want {
				t.Logf("seed %d after %s: vdl %d, oracle %d", seed, step, got, want)
				return false
			}
			for pg := core.PGID(0); pg < pgs; pg++ {
				if got, want := w.durableTail(pg), o.tail(pg); got != want {
					t.Logf("seed %d after %s: pg %d tail %d, oracle %d", seed, step, pg, got, want)
					return false
				}
			}
			backlog := 0
			for _, g := range shipped {
				err, settled := outcomes[g]
				switch {
				case g.last <= want:
					if !settled || err != nil {
						t.Logf("seed %d after %s: group %d below the VDL: settled %v, %v", seed, step, g.first, settled, err)
						return false
					}
				case pin != 0 && g.first >= pin:
					// (An abandoned window refuses a late registration as
					// abandoned, wherever the pin is.)
					if !settled || !(errors.Is(err, quorum.ErrQuorumImpossible) || abandoned && err == ErrClosed) {
						t.Logf("seed %d after %s: group %d at or behind the pin %d: settled %v, %v", seed, step, g.first, pin, settled, err)
						return false
					}
				case abandoned:
					if !settled || err != ErrClosed {
						t.Logf("seed %d after %s: group %d abandoned: settled %v, %v", seed, step, g.first, settled, err)
						return false
					}
				default:
					if settled {
						t.Logf("seed %d after %s: group %d settled (%v) with nothing decided", seed, step, g.first, err)
						return false
					}
					backlog++
				}
			}
			if got := w.backlog(); got != backlog {
				t.Logf("seed %d after %s: backlog %d, oracle %d", seed, step, got, backlog)
				return false
			}
			return true
		}
		for step := 0; len(unregistered) > 0 || len(open) > 0; step++ {
			if step == abandonAt {
				abandoned = true
				if !settle("abandon", w.abandon()) || !check("abandon") {
					return false
				}
			}
			if len(unregistered) > 0 && (len(open) == 0 || rng.Intn(2) == 0) {
				// Register one of the next three framed groups: concurrent
				// framers can invert registration order.
				i := rng.Intn(min(3, len(unregistered)))
				g := unregistered[i]
				unregistered = slices.Delete(unregistered, i, i+1)
				shipped = append(shipped, g)
				switch err := w.register(g); {
				case err == nil:
					o.ends[g.last] = true
					for bi := range g.batches {
						open = append(open, batchRef{g, bi})
					}
				case abandoned && err == ErrClosed, !abandoned && pin != 0 && g.first > pin && err == errBehindFailed:
					outcomes[g] = err // refused: the caller completes it
				default:
					t.Logf("seed %d: register of group %d (pin %d, abandoned %v): %v", seed, g.first, pin, abandoned, err)
					return false
				}
				if !check("register") {
					return false
				}
				continue
			}
			i := rng.Intn(len(open))
			ref := open[i]
			open = slices.Delete(open, i, i+1)
			fail := failures > 0 && rng.Intn(len(open)+1) == 0
			live := !ref.g.settled // still in the window
			culprit := fail && live
			switch {
			case fail:
				failures--
				if !abandoned && (pin == 0 || ref.g.first < pin) {
					pin = ref.g.first
				}
			case !abandoned:
				pg := ref.g.batches[ref.bi].pg
				for l := ref.g.first; l <= ref.g.last; l++ {
					if o.pgOf[l] == pg {
						o.durable[l] = true
					}
				}
			}
			vdl, settled, quorate := w.resolve(ref.g, fail)
			if vdl != o.vdl() {
				t.Logf("seed %d: resolve returned vdl %d, oracle vdl %d", seed, vdl, o.vdl())
				return false
			}
			if last := !slices.ContainsFunc(open, func(r batchRef) bool { return r.g == ref.g }); quorate != (last && live && !fail) {
				t.Logf("seed %d: group %d quorate %v; last batch %v, in the window %v, failed %v", seed, ref.g.first, quorate, last, live, fail)
				return false
			}
			if culprit && (settled != ref.g || ref.g.err != quorum.ErrQuorumImpossible) {
				t.Logf("seed %d: group %d failed its own batch and was not settled first, with the quorum's verdict", seed, ref.g.first)
				return false
			}
			if !settle("resolve", settled) || !check("resolve") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedBatchPinsTheWindow is the property's failing batch on a real
// fleet: a group whose PG1 batch can no longer reach 4/6 fails its Ship with
// quorum.ErrQuorumImpossible and holds the VDL — and every durable tail —
// below itself for good; a later write, which could reach its own quorum and
// still never be durable, fails at once instead of waiting for ever.
func TestFailedBatchPinsTheWindow(t *testing.T) {
	f, c := testVolume(t, 2)
	ctx := context.Background()
	pre := writePage(t, c, 0, "pre") // pg0, LSN 1
	for i := 0; i < 3; i++ {
		f.Node(1, i).Crash()
	}
	m := &core.MTR{Txn: 2}
	m.AddDelta(0, 0, 0, []byte("a"))
	m.AddDelta(1, 1, 0, []byte("b"))
	m.AddDelta(0, 2, 0, []byte("c"))
	if _, err := c.WriteMTR(ctx, m); err != quorum.ErrQuorumImpossible {
		t.Fatalf("write with PG1 below quorum: %v", err)
	}
	m2 := &core.MTR{Txn: 3}
	m2.AddDelta(0, 0, 0, []byte("d"))
	if _, err := c.WriteMTR(ctx, m2); err != errBehindFailed || !errors.Is(err, quorum.ErrQuorumImpossible) {
		t.Fatalf("PG0-only write above a failed batch: %v", err)
	}
	if got := c.VDL(); got != pre {
		t.Fatalf("VDL %d, want it pinned at %d", got, pre)
	}
	if got := c.DurableTail(0); got != pre {
		t.Fatalf("pg0 durable tail %d, want %d", got, pre)
	}
	if s := c.Stats(); s.WriteFailures != 2 || s.Backlog != 0 {
		t.Fatalf("write failures %d, backlog %d; want 2, 0", s.WriteFailures, s.Backlog)
	}
	// Nothing is pending below the pin, so the VDL can no longer move: a wait
	// for the writer's highest LSN and a grow's fence drain return at once,
	// short of their target.
	waited := make(chan struct{})
	go func() {
		c.WaitDurable(c.HighestAllocated())
		close(waited)
	}()
	if !released(waited) {
		t.Fatal("WaitDurable above the pin still parked")
	}
	drained := make(chan error, 1)
	go func() { drained <- c.drainWrites() }()
	select {
	case err := <-drained:
		if err != errBehindFailed {
			t.Fatalf("drain above the pin: %v, want errBehindFailed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("drainWrites above the pin still parked")
	}
}

func TestPGTailTracker(t *testing.T) {
	w := newDurableWindow(59, map[core.PGID]core.LSN{2: 50})
	if w.durableTail(2) != 50 || w.durableTail(0) != 0 {
		t.Fatal("seed tails wrong")
	}
	g1 := testGroup(60, 0, 2) // pg0@60, pg2@61
	g2 := testGroup(62, 0)    // pg0@62
	w.register(g1)
	w.register(g2)
	w.resolve(g1, false)
	if vdl, _, _ := w.resolve(g1, false); vdl != 61 {
		t.Fatalf("vdl %d, want 61", vdl)
	}
	if got := w.durableTail(0); got != 60 {
		t.Fatalf("pg0 tail %d, want 60 (62 not durable yet)", got)
	}
	if got := w.durableTail(2); got != 61 {
		t.Fatalf("pg2 tail %d, want 61", got)
	}
	w.resolve(g2, false)
	if got := w.durableTail(0); got != 62 {
		t.Fatalf("pg0 tail %d, want 62", got)
	}
	// Tails are monotonic: a group below a seeded tail changes nothing.
	w = newDurableWindow(0, map[core.PGID]core.LSN{0: 62})
	g := testGroup(1, 0)
	w.register(g)
	w.resolve(g, false)
	if got := w.durableTail(0); got != 62 {
		t.Fatalf("tail regressed to %d", got)
	}
}

func TestReadRegistryLowWaterMark(t *testing.T) {
	w := newDurableWindow(10, nil)
	r := newReadRegistry(w)
	if lwm := r.lowWaterMark(20); lwm != 20 {
		t.Fatalf("no-readers LWM %d, want VDL", lwm)
	}
	// Pins are taken at the window's VDL; the test moves it by hand.
	pinAt := func(vdl core.LSN) readToken {
		w.vdl.Store(uint64(vdl))
		p, tok := r.register()
		if p != vdl {
			t.Fatalf("pinned %d, want the VDL %d", p, vdl)
		}
		return tok
	}
	t15 := pinAt(15)
	t18 := pinAt(18)
	if lwm := r.lowWaterMark(30); lwm != 20 {
		// Floor is monotonic: it already advanced to 20 above, and the
		// outstanding reads (15, 18) cannot drag it back.
		t.Fatalf("LWM %d, want floor 20", lwm)
	}
	r.release(t15)
	r.release(t18)
	if lwm := r.lowWaterMark(40); lwm != 40 {
		t.Fatalf("LWM %d after releases, want 40", lwm)
	}
	// A long-held read pins the mark.
	hold := pinAt(40)
	later := pinAt(45) // a later read does not matter; min rules
	if lwm := r.lowWaterMark(99); lwm != 40 {
		t.Fatalf("LWM %d, want pinned 40", lwm)
	}
	r.release(hold)
	if lwm := r.lowWaterMark(99); lwm != 45 {
		t.Fatalf("LWM %d, want 45 (remaining read)", lwm)
	}
	// A replica's pin advances with its applied view, never back, and a
	// released pin stays released.
	r.advance(later, 60)
	r.advance(later, 50)
	if lwm := r.lowWaterMark(99); lwm != 60 {
		t.Fatalf("LWM %d, want the advanced pin 60", lwm)
	}
	r.release(later)
	r.advance(later, 70)
	if lwm := r.lowWaterMark(99); lwm != 99 {
		t.Fatalf("LWM %d after the pin's release, want the VDL 99", lwm)
	}
}

// The window is the one place a caller waits for the VDL (WaitDurable,
// drainWrites). A waiter is released by the resolve whose publication reaches
// its target, never earlier, by a pin with nothing pending below it (the VDL
// can no longer move), and by abandon whatever the VDL.

// released reports whether ch is closed, waiting up to a second for it.
func released(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(time.Second):
		return false
	}
}

// parked reports whether ch is still open.
func parked(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return false
	default:
		return true
	}
}

func TestWindowWaitAlreadyDurable(t *testing.T) {
	w := newDurableWindow(10, nil)
	if parked(w.waitFor(7)) || parked(w.waitFor(10)) {
		t.Fatal("wait for an already durable LSN did not complete at once")
	}
	if len(w.waiters) != 0 {
		t.Fatalf("%d waiters kept for durable targets", len(w.waiters))
	}
}

func TestWindowWaitersReleasedAsVDLPasses(t *testing.T) {
	w := newDurableWindow(0, nil)
	g1, g2, g3 := testGroup(1, 0, 0, 0), testGroup(4, 1, 1), testGroup(6, 0, 1)
	for _, g := range []*GroupWrite{g1, g2, g3} {
		if err := w.register(g); err != nil {
			t.Fatal(err)
		}
	}
	ch3, ch7, ch5 := w.waitFor(3), w.waitFor(7), w.waitFor(5)
	if len(w.waiters) != 3 {
		t.Fatalf("%d waiters, want 3", len(w.waiters))
	}
	// g2 on its quorum first: nothing is contiguous with the VDL yet.
	w.resolve(g2, false)
	if !parked(ch3) || !parked(ch5) || !parked(ch7) {
		t.Fatal("a waiter was released before the VDL moved")
	}
	// g1 retires itself and g2: VDL 5.
	if vdl, _, _ := w.resolve(g1, false); vdl != 5 {
		t.Fatalf("vdl %d, want 5", vdl)
	}
	if !released(ch3) || !released(ch5) {
		t.Fatal("waiters at 3 and 5 not released by VDL 5")
	}
	if !parked(ch7) {
		t.Fatal("waiter at 7 released at VDL 5")
	}
	// g3's first batch is not the group's last: no retirement, no release.
	w.resolve(g3, false)
	if !parked(ch7) {
		t.Fatal("waiter at 7 released with g3 half on its quorums")
	}
	w.resolve(g3, false)
	if !released(ch7) || len(w.waiters) != 0 {
		t.Fatalf("waiter at 7 not released by VDL %d (%d left)", w.VDL(), len(w.waiters))
	}
}

func TestWindowWaitersReleasedByAbandon(t *testing.T) {
	w := newDurableWindow(0, nil)
	g := testGroup(1, 0)
	if err := w.register(g); err != nil {
		t.Fatal(err)
	}
	ch := w.waitFor(100)
	if settled := w.abandon(); settled != g {
		t.Fatalf("abandon settled %v, want the pending group", settled)
	}
	if !released(ch) {
		t.Fatal("waiter not released by abandon")
	}
	// Waits after the window is abandoned complete at once, short of target.
	if parked(w.waitFor(200)) || w.VDL() != 0 {
		t.Fatalf("post-abandon wait blocked, or the VDL moved to %d", w.VDL())
	}
}

// TestWindowWaitersReleasedByPin: a failed group pins the window, yet a waiter
// at or above the pin stays parked while a group below the pin is in flight,
// since that group's retirement still raises the VDL. Once nothing below the
// pin is pending — the group retired or failed too — every waiter is
// released, and a later wait returns at once.
func TestWindowWaitersReleasedByPin(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g1Fails bool
		vdl     core.LSN
	}{{"below-retires", false, 2}, {"below-fails", true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newDurableWindow(0, nil)
			g1, g2 := testGroup(1, 0, 0), testGroup(3, 1, 1)
			for _, g := range []*GroupWrite{g1, g2} {
				if err := w.register(g); err != nil {
					t.Fatal(err)
				}
			}
			chs := []<-chan struct{}{w.waitFor(2), w.waitFor(3), w.waitFor(9)}
			if _, settled, _ := w.resolve(g2, true); settled != g2 || g2.err != quorum.ErrQuorumImpossible {
				t.Fatalf("settled %v (%v), want g2 failed", settled, g2.err)
			}
			chs = append(chs, w.waitFor(4))
			for i, ch := range chs {
				if !parked(ch) {
					t.Fatalf("waiter %d released with the group below the pin in flight", i)
				}
			}
			if vdl, _, _ := w.resolve(g1, tc.g1Fails); vdl != tc.vdl {
				t.Fatalf("vdl %d, want %d", vdl, tc.vdl)
			}
			for i, ch := range append(chs, w.waitFor(9)) {
				if !released(ch) {
					t.Fatalf("waiter %d parked with nothing pending below the pin", i)
				}
			}
			if len(w.waiters) != 0 {
				t.Fatalf("%d waiters kept", len(w.waiters))
			}
		})
	}
}

// TestWindowWaitersConcurrent: two hundred waiters and a resolver moving the
// VDL one group at a time; no waiter wakes before the VDL covers its target.
func TestWindowWaitersConcurrent(t *testing.T) {
	const n = 200
	w := newDurableWindow(0, nil)
	groups := make([]*GroupWrite, n)
	for i := range groups {
		groups[i] = testGroup(core.LSN(i+1), core.PGID(i%3))
		if err := w.register(groups[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(target core.LSN) {
			defer wg.Done()
			<-w.waitFor(target)
			if got := w.VDL(); got < target {
				t.Errorf("woken at VDL %d before it reached %d", got, target)
			}
		}(core.LSN(i))
	}
	go func() {
		for _, g := range groups {
			w.resolve(g, false)
		}
	}()
	wg.Wait()
}

// TestClientWaitsReleasedByCrashAndClose: a WaitDurable and a fence drain
// parked behind a write framed but not yet shipped — a commit between the
// framer and its senders — return once the writer crashes or closes, with
// the VDL short of their target; the drain reports ErrClosed instead of a
// drained pipe.
func TestClientWaitsReleasedByCrashAndClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Client)
	}{
		{"crash", (*Client).Crash},
		{"close", (*Client).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := testVolume(t, 1)
			pre := writePage(t, c, 0, "pre")
			m := &core.MTR{Txn: 9}
			m.AddDelta(0, 0, 0, []byte("x"))
			g, err := c.FrameMTRs(context.Background(), []*core.MTR{m})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Release()
			waited := make(chan struct{})
			go func() {
				c.WaitDurable(g.MaxCPL())
				close(waited)
			}()
			drained := make(chan error, 1)
			go func() { drained <- c.drainWrites() }()
			time.Sleep(10 * time.Millisecond)
			if !parked(waited) {
				t.Fatal("WaitDurable returned with its write not shipped")
			}
			tc.stop(c)
			if !released(waited) {
				t.Fatal("WaitDurable still parked after the writer went away")
			}
			select {
			case err := <-drained:
				if err != ErrClosed {
					t.Fatalf("drain released by %s returned %v, want ErrClosed", tc.name, err)
				}
			case <-time.After(time.Second):
				t.Fatal("drainWrites still parked after the writer went away")
			}
			if got := c.VDL(); got != pre {
				t.Fatalf("VDL %d after %s, want it left at %d", got, tc.name, pre)
			}
		})
	}
}
