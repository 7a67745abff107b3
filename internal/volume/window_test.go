package volume

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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
	if vdl, done := w.resolve(g2, false); vdl != 0 || !done {
		t.Fatalf("vdl %d done %v before the prefix resolved", vdl, done)
	}
	if w.backlog() != 2 {
		t.Fatalf("backlog %d with both groups unretired", w.backlog())
	}
	if vdl, _ := w.resolve(g1, false); vdl != 5 {
		t.Fatalf("vdl %d, want 5 (both groups covered)", vdl)
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
	if vdl, done := w.resolve(g, false); vdl != 0 || done {
		t.Fatalf("vdl %d done %v: LSN 3 is not the group's CPL", vdl, done)
	}
	if tail := w.durableTail(0); tail != 0 {
		t.Fatalf("pg0 tail %d published before the VDL covers it", tail)
	}
	if vdl, done := w.resolve(g, false); vdl != 4 || !done {
		t.Fatalf("vdl %d done %v, want 4", vdl, done)
	}
}

func TestAckWindowSeededStart(t *testing.T) {
	w := newDurableWindow(100, nil)
	g := testGroup(101, 0, 0)
	w.register(g)
	if vdl, _ := w.resolve(g, false); vdl != 102 {
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
// random inversions and resolved batch by batch in random order — one batch
// sometimes failing for good — the window's VDL, every durable tail and the
// backlog equal the brute-force oracle's after every step.
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
		var registered []*GroupWrite
		var open []batchRef
		failing := rng.Intn(3) == 0
		check := func(step string) bool {
			want := o.vdl()
			w.mu.Lock()
			got := w.vdl
			w.mu.Unlock()
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
			for _, g := range registered {
				if g.last > want {
					backlog++
				}
			}
			if got := w.backlog(); got != backlog {
				t.Logf("seed %d after %s: backlog %d, oracle %d", seed, step, got, backlog)
				return false
			}
			return true
		}
		for len(unregistered) > 0 || len(open) > 0 {
			if len(unregistered) > 0 && (len(open) == 0 || rng.Intn(2) == 0) {
				// Register one of the next three framed groups: concurrent
				// framers can invert registration order.
				i := rng.Intn(min(3, len(unregistered)))
				g := unregistered[i]
				unregistered = slices.Delete(unregistered, i, i+1)
				w.register(g)
				registered = append(registered, g)
				o.ends[g.last] = true
				for bi := range g.batches {
					open = append(open, batchRef{g, bi})
				}
				if !check("register") {
					return false
				}
				continue
			}
			i := rng.Intn(len(open))
			ref := open[i]
			open = slices.Delete(open, i, i+1)
			fail := failing && rng.Intn(len(open)+1) == 0
			if fail {
				failing = false
			} else {
				pg := ref.g.batches[ref.bi].pg
				for l := ref.g.first; l <= ref.g.last; l++ {
					if o.pgOf[l] == pg {
						o.durable[l] = true
					}
				}
			}
			vdl, done := w.resolve(ref.g, fail)
			if vdl != o.vdl() || done != (ref.g.unresolved == 0) {
				t.Logf("seed %d: resolve returned vdl %d done %v, oracle vdl %d", seed, vdl, done, o.vdl())
				return false
			}
			if !check("resolve") {
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
// below itself for good, whatever later groups achieve.
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
	if _, err := c.WriteMTR(ctx, m); !errors.Is(err, quorum.ErrQuorumImpossible) {
		t.Fatalf("write with PG1 below quorum: %v", err)
	}
	// A later PG0-only write reaches its own quorum and still is not durable.
	m2 := &core.MTR{Txn: 3}
	m2.AddDelta(0, 0, 0, []byte("d"))
	cpl, err := c.WriteMTR(ctx, m2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.DurableChan(cpl):
		t.Fatalf("cpl %d acknowledged durable above a failed batch", cpl)
	default:
	}
	if got := c.VDL(); got != pre {
		t.Fatalf("VDL %d, want it pinned at %d", got, pre)
	}
	if got := c.DurableTail(0); got != pre {
		t.Fatalf("pg0 durable tail %d, want %d", got, pre)
	}
	if s := c.Stats(); s.WriteFailures != 1 || s.Backlog != 2 {
		t.Fatalf("write failures %d, backlog %d; want 1, 2", s.WriteFailures, s.Backlog)
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
	if vdl, _ := w.resolve(g1, false); vdl != 61 {
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
	r := newReadRegistry(10)
	if lwm := r.lowWaterMark(20); lwm != 20 {
		t.Fatalf("no-readers LWM %d, want VDL", lwm)
	}
	rel5 := r.register(15)
	rel8 := r.register(18)
	if lwm := r.lowWaterMark(30); lwm != 20 {
		// Floor is monotonic: it already advanced to 20 above, and the
		// outstanding reads (15, 18) cannot drag it back.
		t.Fatalf("LWM %d, want floor 20", lwm)
	}
	rel5()
	rel8()
	if lwm := r.lowWaterMark(40); lwm != 40 {
		t.Fatalf("LWM %d after releases, want 40", lwm)
	}
	// A long-held read pins the mark.
	hold := r.register(40)
	r.register(45) // a later read does not matter; min rules
	if lwm := r.lowWaterMark(99); lwm != 40 {
		t.Fatalf("LWM %d, want pinned 40", lwm)
	}
	hold()
	if lwm := r.lowWaterMark(99); lwm != 45 {
		t.Fatalf("LWM %d, want 45 (remaining read)", lwm)
	}
}
