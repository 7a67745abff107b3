package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// gapTracker is the reference for a segment's SCL: a prevLSN → LSN map of
// the records received above the SCL, which advances the SCL as holes fill.
// It is fed every record the node files, and rebuilt over the retained log
// after a truncation or a restore.
type gapTracker struct {
	scl     core.LSN
	pending map[core.LSN]core.LSN // prevLSN -> LSN of a received record not yet linked
}

func newGapTracker(base core.LSN) *gapTracker {
	return &gapTracker{scl: base, pending: make(map[core.LSN]core.LSN)}
}

// add records receipt of a record; duplicates and records at or below the
// SCL are ignored.
func (g *gapTracker) add(prev, lsn core.LSN) {
	if lsn <= g.scl {
		return
	}
	if prev != g.scl {
		g.pending[prev] = lsn
		return
	}
	g.scl = lsn
	for {
		next, ok := g.pending[g.scl]
		if !ok {
			return
		}
		delete(g.pending, g.scl)
		g.scl = next
	}
}

func (g *gapTracker) hasGap() bool { return len(g.pending) > 0 }

// indexOracle is the reference for what a node answers about its records:
// the gap tracker, and the sorted set of CPLs seen, trimmed at every GC to
// its highest member at or below the GC tail.
type indexOracle struct {
	gaps *gapTracker
	cpls []core.LSN
}

// file mirrors a record the node filed.
func (o *indexOracle) file(r *core.Record) {
	o.gaps.add(r.PrevLSN, r.LSN)
	if r.IsCPL() {
		if i, found := slices.BinarySearch(o.cpls, r.LSN); !found {
			o.cpls = slices.Insert(o.cpls, i, r.LSN)
		}
	}
}

// search returns the index of the first CPL above lsn.
func (o *indexOracle) search(lsn core.LSN) int {
	i, found := slices.BinarySearch(o.cpls, lsn)
	if found {
		i++
	}
	return i
}

// floor is the highest CPL at or below limit, ZeroLSN if none.
func (o *indexOracle) floor(limit core.LSN) core.LSN {
	if i := o.search(limit); i > 0 {
		return o.cpls[i-1]
	}
	return core.ZeroLSN
}

// trim keeps, of the CPLs below the GC tail, only the highest.
func (o *indexOracle) trim(gcTail core.LSN) {
	i, _ := slices.BinarySearch(o.cpls, o.floor(gcTail))
	o.cpls = slices.Delete(o.cpls, 0, i)
}

// relink rebuilds the gap tracker over the node's retained log from its GC
// tail, as a truncation or a restore did.
func (o *indexOracle) relink(n *Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	o.gaps = newGapTracker(n.gcTail)
	for _, r := range n.log {
		o.gaps.add(r.PrevLSN, r.LSN)
	}
}

// check holds the node's SCL, HasGaps and recovery view to the oracle: the
// floor's CPL is the highest CPL at or below the GC tail, or the truncation's
// From; the view's CPLs are the oracle's above the floor and its held LSNs
// the log's.
func (o *indexOracle) check(t *testing.T, n *Node, when string) {
	t.Helper()
	if got, want := n.SCL(), o.gaps.scl; got != want {
		t.Fatalf("%s: SCL %d, oracle %d", when, got, want)
	}
	if got, want := n.HasGaps(), o.gaps.hasGap(); got != want {
		t.Fatalf("%s: HasGaps %v, oracle %v (SCL %d)", when, got, want, o.gaps.scl)
	}
	v := n.RecoveryView()
	gcTail := n.GCTail()
	if v.Floor != max(gcTail, v.Trunc.From) {
		t.Fatalf("%s: floor %d, GC tail %d, truncated from %d", when, v.Floor, gcTail, v.Trunc.From)
	}
	if want := max(o.floor(gcTail), v.Trunc.From); v.FloorCPL != want {
		t.Fatalf("%s: floor CPL %d, oracle %d", when, v.FloorCPL, want)
	}
	if want := o.cpls[o.search(v.Floor):]; !slices.Equal(v.CPLs, want) {
		t.Fatalf("%s: CPLs above the floor %d: %v, oracle %v", when, v.Floor, v.CPLs, want)
	}
	n.mu.Lock()
	held := make([]core.LSN, 0, len(n.log))
	for _, r := range n.log {
		if r.LSN > v.Floor {
			held = append(held, r.LSN)
		}
	}
	n.mu.Unlock()
	if !slices.Equal(v.Held, held) {
		t.Fatalf("%s: held above the floor %d: %v, log %v", when, v.Floor, v.Held, held)
	}
}

// indexNode is a lone replica for the oracle tests; its GC floor is its own
// SCL and the PGMRPL the test sets, whatever its role.
func indexNode(role core.ReplicaRole) *Node {
	net := netsim.New(netsim.FastLocal())
	return NewNode(Config{Seg: core.SegmentID{PG: 0}, Node: "idx", Net: net, Disk: disk.FastLocal(), Role: role})
}

// ingestAll files records through ingestLocked, mirroring each one filed.
func ingestAll(n *Node, o *indexOracle, recs ...*core.Record) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range recs {
		if n.ingestLocked(r) {
			o.file(r)
		}
	}
}

// TestSegmentIndexMatchesOracle files random histories of one PG's records
// through ingestLocked — in order, a later flight first, duplicates, gossip
// fills of the SCL's hole — mixed with coalescing (full and log tier),
// recovery truncations, Wipe and Snapshot/LoadSnapshot round trips, and holds
// the node's SCL, HasGaps and recovery view to the oracle after every step.
func TestSegmentIndexMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		role := core.RoleFull
		if seed%2 == 0 {
			role = core.RoleLog
		}
		rng := rand.New(rand.NewSource(seed))
		n := indexNode(role)
		o := &indexOracle{gaps: newGapTracker(core.ZeroLSN)}

		// chain is the PG's history as the writer made it, in LSN order; other
		// PGs take the LSNs it skips. sent counts the records delivered in
		// order (a hole is a record skipped, never one re-sent).
		var chain []*core.Record
		lastLSN, tail := core.ZeroLSN, core.ZeroLSN
		extend := func(k int) {
			for ; k > 0; k-- {
				lastLSN += 1 + core.LSN(rng.Intn(3))
				r := &core.Record{LSN: lastLSN, PrevLSN: tail, Type: core.RecPageDelta, Page: core.PageID(rng.Intn(4)),
					Offset: uint32(rng.Intn(64)), Data: []byte{byte(lastLSN), byte(lastLSN >> 8)}}
				if rng.Intn(3) == 0 {
					r.Flags = core.FlagCPL
				}
				chain = append(chain, r)
				tail = lastLSN
			}
		}
		sent := 0
		var snap []byte
		var snapCPLs []core.LSN
		epoch := uint64(0)

		for step := 0; step < 300; step++ {
			var what string
			switch op := rng.Intn(20); {
			case op < 7:
				what = "in-order arrival"
				extend(1 + rng.Intn(3))
				if rng.Intn(4) == 0 && sent < len(chain)-1 {
					sent++ // lost in flight: a hole for gossip
				}
				for ; sent < len(chain); sent++ {
					ingestAll(n, o, chain[sent])
				}
			case op < 10:
				what = "later flight first"
				extend(2 + rng.Intn(4))
				split := sent + 1 + rng.Intn(len(chain)-sent-1)
				ingestAll(n, o, chain[split:]...)
				ingestAll(n, o, chain[sent:split]...)
				sent = len(chain)
			case op < 12:
				what = "duplicate"
				if len(chain) > 0 {
					ingestAll(n, o, chain[rng.Intn(len(chain))])
				}
			case op < 14:
				what = "gossip fill"
				scl := n.SCL()
				i, _ := slices.BinarySearchFunc(chain, scl+1, func(r *core.Record, l core.LSN) int { return int(r.LSN) - int(l) })
				ingestAll(n, o, chain[i:min(len(chain), i+1+rng.Intn(6))]...)
			case op < 16:
				what = "coalesce"
				if len(chain) > 0 {
					n.mu.Lock()
					n.observePointsLocked(0, chain[rng.Intn(len(chain))].LSN)
					n.mu.Unlock()
				}
				n.CoalesceOnce()
				o.trim(n.GCTail())
			case op < 17:
				// A recovery's truncation: the writer's history ends at a point
				// at or above the GC tail, records above it are annulled, and the
				// next writer's records start above the range, chained from the
				// last record kept. An image from before it is not restored.
				what = "truncate"
				keep := n.GCTail() + core.LSN(rng.Intn(12))
				i, _ := slices.BinarySearchFunc(chain, keep+1, func(r *core.Record, l core.LSN) int { return int(r.LSN) - int(l) })
				chain = chain[:i]
				tail = core.ZeroLSN
				if i > 0 {
					tail = chain[i-1].LSN
				}
				epoch++
				tr := core.TruncationRange{Epoch: epoch, From: keep, To: lastLSN + 1000}
				if err := n.Truncate(tr); err != nil {
					t.Fatal(err)
				}
				o.cpls = slices.DeleteFunc(o.cpls, tr.Annuls)
				o.relink(n)
				lastLSN = tr.To
				sent = min(sent, len(chain))
				snap, snapCPLs = nil, nil
			case op < 18:
				what = "snapshot round trip"
				snap, snapCPLs = n.Snapshot(), slices.Clone(o.cpls)
				if err := n.LoadSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				o.relink(n)
			default:
				what = "wipe and restore"
				if snap == nil {
					snap, snapCPLs = n.Snapshot(), slices.Clone(o.cpls)
				}
				n.Wipe()
				o.gaps, o.cpls = newGapTracker(core.ZeroLSN), nil
				o.check(t, n, fmt.Sprintf("seed %d step %d, wiped", seed, step))
				if err := n.LoadSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				o.cpls = slices.Clone(snapCPLs)
				o.relink(n)
			}
			o.check(t, n, fmt.Sprintf("seed %d step %d, %s", seed, step, what))
		}
		if n.Stats().RecordsGCed == 0 {
			t.Fatalf("seed %d: no record was ever collected", seed)
		}
	}

	// Two retained records that name one backlink. Only a replica that missed
	// a recovery's Truncate holds such a pair: the old writer's record above
	// the recovery point and the new writer's first, both chained from the last
	// record kept. The map kept the last arrival; the log links the lower LSN,
	// whatever the order, and keeps the other above the SCL as a gap until the
	// truncation reaches the replica.
	t.Run("same-backlink", func(t *testing.T) {
		rec := func(lsn, prev core.LSN) *core.Record {
			return &core.Record{LSN: lsn, PrevLSN: prev, Type: core.RecPageDelta, Data: []byte{1}}
		}
		for _, order := range [][]core.LSN{{3, 5}, {5, 3}} {
			n := indexNode(core.RoleFull)
			o := &indexOracle{gaps: newGapTracker(core.ZeroLSN)}
			for _, l := range order {
				ingestAll(n, o, rec(l, 2))
			}
			ingestAll(n, o, rec(2, 0))
			if scl, gaps := n.SCL(), n.HasGaps(); scl != 3 || !gaps {
				t.Fatalf("arrivals %v then 2: SCL %d, gaps %v; want 3 and a gap", order, scl, gaps)
			}
			if want := order[1]; o.gaps.scl != want || o.gaps.hasGap() {
				t.Fatalf("arrivals %v then 2: the map's SCL %d, gap %v; want %d and none", order, o.gaps.scl, o.gaps.hasGap(), want)
			}
			if err := n.Truncate(core.TruncationRange{Epoch: 1, From: 2, To: 4}); err != nil {
				t.Fatal(err)
			}
			if scl, gaps := n.SCL(), n.HasGaps(); scl != 5 || gaps {
				t.Fatalf("arrivals %v, after the truncation: SCL %d, gaps %v; want 5 and none", order, scl, gaps)
			}
		}
	})
}
