package storage

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// TestRecordLogMatchesMapOracle drives the sorted log and the map it replaced
// through the same random in-order, out-of-order and duplicate inserts, GC
// prefix drops, truncation-style range removals and gossip-style pulls, and
// holds the log to the map's contents, in LSN order, after every step.
func TestRecordLogMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log recordLog
		oracle := make(map[core.LSN]*core.Record)
		sorted := func() []*core.Record {
			out := make([]*core.Record, 0, len(oracle))
			for _, r := range oracle {
				out = append(out, r)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
			return out
		}
		type pull struct {
			got, want []*core.Record
		}
		var pulls []pull
		next := core.LSN(1)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // arrival: mostly the next LSN, sometimes skipping ahead, sometimes behind or again
				lsn := next
				switch rng.Intn(6) {
				case 0:
					lsn = next + core.LSN(rng.Intn(4))
				case 1:
					lsn = 1 + core.LSN(rng.Int63n(int64(next)))
				}
				_, dup := oracle[lsn]
				if log.has(lsn) != dup {
					t.Fatalf("seed %d step %d: has(%d) = %v, oracle holds it: %v", seed, step, lsn, !dup, dup)
				}
				if !dup {
					rec := &core.Record{LSN: lsn}
					if i := log.insert(rec); log[i] != rec {
						t.Fatalf("seed %d step %d: insert(%d) returned index %d, which holds LSN %d", seed, step, lsn, i, log[i].LSN)
					}
					oracle[lsn] = rec
				}
				if lsn >= next {
					next = lsn + 1
				}
			case op < 7: // GC of a prefix
				floor := core.LSN(rng.Int63n(int64(next) + 1))
				log.dropPrefix(log.search(floor))
				for lsn := range oracle {
					if lsn <= floor {
						delete(oracle, lsn)
					}
				}
			case op < 8: // truncation of (from, to]
				from := core.LSN(rng.Int63n(int64(next) + 1))
				to := from + core.LSN(rng.Intn(8))
				removed := log.removeRange(from, to)
				for _, r := range removed {
					if _, held := oracle[r.LSN]; !held || r.LSN <= from || r.LSN > to {
						t.Fatalf("seed %d step %d: removeRange(%d, %d] returned LSN %d", seed, step, from, to, r.LSN)
					}
					delete(oracle, r.LSN)
				}
				for lsn := range oracle {
					if lsn > from && lsn <= to {
						t.Fatalf("seed %d step %d: removeRange(%d, %d] left LSN %d", seed, step, from, to, lsn)
					}
				}
			default: // a pull, kept to be looked at again after later GCs slid the log
				after := core.LSN(rng.Int63n(int64(next) + 1))
				limit := 1 + rng.Intn(12)
				var want []*core.Record
				for _, r := range sorted() {
					if r.LSN > after && len(want) < limit {
						want = append(want, r)
					}
				}
				pulls = append(pulls, pull{log.after(after, limit), want})
			}

			want := sorted()
			if len(log) != len(want) {
				t.Fatalf("seed %d step %d: log holds %d records, oracle %d", seed, step, len(log), len(want))
			}
			for i, r := range want {
				if log[i] != r {
					t.Fatalf("seed %d step %d: position %d holds LSN %d, oracle has %d there", seed, step, i, log[i].LSN, r.LSN)
				}
			}
			top := core.ZeroLSN
			if len(want) > 0 {
				top = want[len(want)-1].LSN
			}
			if log.highest() != top {
				t.Fatalf("seed %d step %d: highest %d, oracle %d", seed, step, log.highest(), top)
			}
			for _, r := range log[len(log):cap(log)] {
				if r != nil {
					t.Fatalf("seed %d step %d: collected record %d still pinned behind the log", seed, step, r.LSN)
				}
			}
		}
		for i, p := range pulls {
			if len(p.got) != len(p.want) {
				t.Fatalf("seed %d pull %d: %d records, want %d", seed, i, len(p.got), len(p.want))
			}
			for j := range p.want {
				if p.got[j] != p.want[j] {
					t.Fatalf("seed %d pull %d: record %d changed under the caller after a later GC", seed, i, j)
				}
			}
		}
	}
}

// checkDirtyList holds a node to the dirty list's invariant: every page with
// a chain is on the list exactly once and marked so, nothing off the list has
// a chain or the mark, and a listed entry that is not a live page (Truncate
// deleted it) has no chain left to fold.
func checkDirtyList(t *testing.T, n *Node, when string) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := make(map[*pageState]bool, len(n.dirty))
	for _, ps := range n.dirty {
		if seen[ps] {
			t.Fatalf("%s: page %d is on the dirty list twice", when, ps.id)
		}
		seen[ps] = true
		if !ps.listed {
			t.Fatalf("%s: page %d is listed but not marked", when, ps.id)
		}
		if n.pages[ps.id] != ps && len(ps.chain) > 0 {
			t.Fatalf("%s: listed page %d is not the live one and still has a chain", when, ps.id)
		}
	}
	for id, ps := range n.pages {
		if ps.id != id {
			t.Fatalf("%s: page %d filed under id %d", when, ps.id, id)
		}
		if ps.listed != seen[ps] {
			t.Fatalf("%s: page %d marked listed=%v, on the list: %v", when, id, ps.listed, seen[ps])
		}
		if len(ps.chain) > 0 && !seen[ps] {
			t.Fatalf("%s: page %d has a chain of %d and is not on the dirty list", when, id, len(ps.chain))
		}
	}
}

// TestDirtyListInvariant walks one node through everything that files, cuts,
// empties or replaces chains and checks the dirty list after each.
func TestDirtyListInvariant(t *testing.T) {
	const pages = 5
	_, nodes := testPG(t, nil)
	n, peer := nodes[0], nodes[1]
	ctx := context.Background()
	views, _, f := coalesceLoad(t, 3, 60, pages)
	half := views[len(views)/2].Last()
	for _, v := range views {
		for _, to := range []*Node{n, peer} {
			if _, err := receiveBatch(to, ctx, v, v.Last(), half); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkDirtyList(t, n, "after Ingest")

	if adv := n.CoalesceOnce(); adv != pages {
		t.Fatalf("round advanced %d pages, want %d", adv, pages)
	}
	peer.CoalesceOnce()
	checkDirtyList(t, n, "after CoalesceOnce")

	// Scrub repair: the peer's copy replaces the base and its chain is merged.
	if !n.CorruptPage(2) {
		t.Fatal("no base to corrupt")
	}
	if bad := n.ScrubOnce(); bad != 1 || n.Stats().ScrubsRepaired != 1 {
		t.Fatalf("scrub found %d corrupt pages, repaired %d", bad, n.Stats().ScrubsRepaired)
	}
	checkDirtyList(t, n, "after scrub repair")

	// A round that meets a malformed record cuts nothing.
	m := &core.MTR{Txn: 1000}
	m.AddDelta(0, 3, 4070, []byte("overrun!"))
	m.AddDelta(0, 9, 0, []byte("a page that exists only as a chain"))
	bad := frame(t, f, m)[0]
	tail := bad.Last()
	if _, err := receiveBatch(n, ctx, bad, tail, tail); err != nil {
		t.Fatal(err)
	}
	if adv := n.CoalesceOnce(); adv != 0 {
		t.Fatalf("round advanced %d pages past a malformed record", adv)
	}
	checkDirtyList(t, n, "after an aborted round")

	// Truncation annuls the bad MTR: page 3's chain shrinks, page 9 — chain
	// only, no base: the round aborted on page 3, listed before it — is
	// deleted while it is on the list.
	if n.BasePageLSN(9) != core.ZeroLSN {
		t.Fatal("setup: the aborted round reached page 9 before page 3")
	}
	if err := n.Truncate(core.TruncationRange{Epoch: 1, From: tail - 2, To: tail}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ReadPage(ctx, 9, tail-2, 0); err == nil {
		t.Fatal("page 9 survived the truncation of its only record")
	}
	checkDirtyList(t, n, "after Truncate")
	// The page comes back under the same id, and the round after that drops
	// the deleted entry and folds the live one once.
	again := craft(t, core.Record{LSN: tail + 1, PrevLSN: tail - 2, Type: core.RecPageDelta, PG: 0, Page: 9, Data: []byte("again")})
	if _, err := receiveBatch(n, ctx, again, tail+1, tail+1); err != nil {
		t.Fatal(err)
	}
	checkDirtyList(t, n, "after re-creating a truncated page")
	if adv := n.CoalesceOnce(); adv != pages+1 {
		t.Fatalf("round after the truncation advanced %d pages, want %d", adv, pages+1)
	}
	checkDirtyList(t, n, "after the round that follows a truncation")
	n.mu.Lock()
	listed := len(n.dirty)
	n.mu.Unlock()
	if listed != 0 {
		t.Fatalf("%d pages still listed with everything folded", listed)
	}

	snap := peer.Snapshot()
	if err := n.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	checkDirtyList(t, n, "after LoadSnapshot")
	if n.ChainLength(1) == 0 {
		t.Fatal("the snapshot was meant to carry chains")
	}

	n.Wipe()
	checkDirtyList(t, n, "after Wipe")
}

// TestDirtyListOnLogTier: a log replica never runs the coalescing body, so
// its own GC has to keep the list — cutting the listed chains and forgetting
// the pages that leaves with nothing.
func TestDirtyListOnLogTier(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	nodes := make([]*Node, 6)
	for i := range nodes {
		role := core.RoleLog
		if i%2 == 1 {
			role = core.RolePage
		}
		nodes[i] = NewNode(Config{
			Seg: core.SegmentID{PG: 0, Replica: uint8(i)}, Node: netsim.NodeID(string(rune('a' + i))),
			AZ: netsim.AZ(i / 2), Net: net, Disk: disk.FastLocal(), Role: role,
		})
	}
	for _, n := range nodes {
		n.SetPeers(nodes)
	}
	logNode := nodes[0]
	ctx := context.Background()
	views, _, _ := coalesceLoad(t, 4, 40, 4)
	last := views[len(views)-1].Last()
	for _, v := range views {
		for _, n := range nodes {
			if n.Role() != core.RoleLog {
				continue
			}
			if _, err := receiveBatch(n, ctx, v, last, last); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkDirtyList(t, logNode, "log tier after Ingest")
	SyncGroup(nodes) // the page tier pulls the stream, which lets the log tier's GC floor rise
	logNode.CoalesceOnce()
	checkDirtyList(t, logNode, "log tier after logGCOnce")
	if got := logNode.GCTail(); got != last {
		t.Fatalf("log tier GC tail %d, want %d", got, last)
	}
	logNode.mu.Lock()
	listed, held := len(logNode.dirty), len(logNode.pages)
	logNode.mu.Unlock()
	if listed != 0 || held != 0 {
		t.Fatalf("log tier still lists %d pages and holds %d after collecting everything", listed, held)
	}
}
