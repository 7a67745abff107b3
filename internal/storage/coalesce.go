package storage

import (
	"aurora/internal/core"
	"aurora/internal/page"
)

// CoalesceOnce advances materialized pages and garbage collects log
// records (Figure 4 steps 5 and 7). A page's base image may only advance to
// the PGMRPL — the low-water mark below which the writer guarantees no
// read-point will ever be requested (§4.2.3) — and never past the segment's
// own completeness point. The entire log prefix at or below that safe point
// (page records folded into bases, plus transaction metadata records) is
// then garbage collected as one unit, so the retained log always starts
// exactly where the GC boundary (gcTail) ends. Of the CPL positions at or
// below it only the highest is retained: recovery never asks below it.
//
// A round looks only at the pages that have a chain (the dirty list), so it
// costs what changed since the last round, not what the node holds, and it
// folds every chain at or below the safe point, whatever its length. §3.2
// governs this work per page by the length of that page's chain; that policy
// is not built (ROADMAP, "Background work by need", chain-length-governed
// coalescing).
//
// The fold, cut and GC happen under n.mu as one unit; writing the advanced
// pages to disk happens after the unlock, so an Ingest filing its records
// never waits behind background IO (§3.3: only steps 1 and 2 are in the
// foreground path). It returns the number of pages whose base image advanced.
func (n *Node) CoalesceOnce() int {
	if n.down.Load() {
		return 0
	}
	if n.cfg.Role == core.RoleLog {
		return n.logGCOnce()
	}
	n.mu.Lock()
	advanced := n.coalesceLocked()
	n.mu.Unlock()
	for i := 0; i < advanced; i++ {
		if err := n.ssd.Write(page.Size); err != nil {
			break
		}
	}
	return advanced
}

// coalesceLocked is CoalesceOnce's in-memory round: it folds, cuts and
// collects, and returns how many bases advanced (0 on an aborted round).
func (n *Node) coalesceLocked() int {
	if n.wiped {
		return 0
	}
	safe := n.pgmrpl
	if scl := n.gaps.SCL(); scl < safe {
		safe = scl
	}
	if safe <= n.gcTail {
		return 0
	}

	// Phase 1: fold the safe prefix of every listed chain into its base, in
	// place. Only the dirty list is walked — a page with no chain has nothing
	// to fold — so a round over a node that holds many pages and changed few
	// costs the few. Nothing outside n.mu holds a base (reads, repairs and
	// snapshots copy under the lock), so the only page-sized allocation is a
	// page's first base. The base is verified before it is folded onto:
	// stamping a fresh CRC over a corrupt image would launder the corruption
	// past both the read gate and the scrubber. A bad base or a malformed
	// record (caught at generation, so local corruption here) aborts the round
	// before anything is cut, so the GC prefix stays consistent; the scrubber
	// repairs. Bases folded earlier in an aborted round stay advanced over
	// their uncut chains, which is still consistent: materialization skips
	// records at or below the base LSN, and no read point lies below the
	// PGMRPL.
	advanced := 0
	for _, ps := range n.dirty {
		if len(ps.chain) == 0 || ps.chain[0].LSN > safe {
			continue
		}
		base := ps.base
		if base == nil {
			base = page.New(ps.id)
		} else if base.VerifyChecksum() != nil {
			return 0
		}
		err := foldInto(base, ps.chain, safe)
		// Apply changes nothing when it refuses a record, so even on error
		// the base is a whole image as of its LSN and needs a CRC to match.
		base.UpdateChecksum()
		if err != nil {
			return 0
		}
		ps.base = base
		advanced++
	}

	// Phase 2: cut the folded prefixes and GC the complete log prefix.
	n.cutDirtyLocked(safe)
	n.gcLogLocked(safe)
	n.coalesces.Add(uint64(advanced))
	return advanced
}

// cutDirtyLocked cuts every listed chain at floor and takes off the dirty
// list the pages that leaves without one. Entries whose chain was already
// emptied behind the list's back (Truncate, scrub repair) go the same way,
// and a page left with neither base nor chain is forgotten — unless the
// entry is the remains of a page Truncate deleted and a later record
// re-created under the same id.
func (n *Node) cutDirtyLocked(floor core.LSN) {
	keep := n.dirty[:0]
	for _, ps := range n.dirty {
		ps.chain = cutChain(ps.chain, floor)
		if len(ps.chain) > 0 {
			keep = append(keep, ps)
			continue
		}
		ps.listed = false
		if ps.base == nil && n.pages[ps.id] == ps {
			delete(n.pages, ps.id)
		}
	}
	clear(n.dirty[len(keep):])
	n.dirty = keep
}

// gcLogLocked collects the retained log prefix at or below floor, moves the
// GC boundary to the highest LSN collected and trims the CPL index below it.
// It returns how many records that was.
func (n *Node) gcLogLocked(floor core.LSN) int {
	k := n.log.search(floor)
	if k == 0 {
		return 0
	}
	n.gcTail = max(n.gcTail, n.log[k-1].LSN)
	n.log.dropPrefix(k)
	n.cpls.trim(n.gcTail)
	n.gced.Add(uint64(k))
	return k
}

// foldInto applies to base, in place, the records of chain (ascending LSN)
// that are at or below safe and not yet reflected in it: page.Materialize's
// loop without its copy of the base. Coalescing runs it on the base itself,
// a read on its private copy of the base with the read point as safe.
func foldInto(base page.Page, chain []*core.Record, safe core.LSN) error {
	for _, r := range chain {
		if r.LSN > safe {
			break
		}
		if r.LSN <= base.LSN() {
			continue
		}
		if err := base.Apply(r); err != nil {
			return err
		}
	}
	return nil
}

// cutChain drops the records at or below floor from the front of a chain by
// sliding the rest down inside the backing array, so that filing the next
// records appends into the room freed instead of growing a new slice. The
// vacated tail is cleared so collected records are not pinned.
func cutChain(chain []*core.Record, floor core.LSN) []*core.Record {
	cut := 0
	for cut < len(chain) && chain[cut].LSN <= floor {
		cut++
	}
	if cut == 0 {
		return chain
	}
	m := copy(chain, chain[cut:])
	clear(chain[m:])
	return chain[:m]
}

// logGCOnce is the log tier's frugal stand-in for coalescing: no page is
// ever materialized — a log replica's job ends at durable, complete,
// pulled. The retained log prefix is GC'd only once this replica and
// every peer are complete through it (page replicas pull the feed from
// here, so dropping records a peer still needs would starve the feed)
// and never above the PGMRPL. A wiped or freshly-repairing peer holds
// the floor at its SCL, which safely stalls GC until it catches up. The
// write that persists the advanced GC boundary runs after the unlock.
func (n *Node) logGCOnce() int {
	// Peer SCLs are read without holding our own lock (same discipline as
	// the gossip pull) to keep lock ordering single-level.
	n.mu.Lock()
	peers := append([]*Node(nil), n.peers...)
	n.mu.Unlock()
	floor := n.SCL()
	for _, p := range peers {
		if s := p.SCL(); s < floor {
			floor = s
		}
	}
	n.mu.Lock()
	collected := n.logGCLocked(floor)
	n.mu.Unlock()
	if collected {
		// The round reports nothing either way: the records are collected.
		_ = n.ssd.Write(64)
	}
	return 0
}

// logGCLocked collects the log tier's retained prefix at or below floor
// (capped at the PGMRPL) and reports whether anything was collected.
func (n *Node) logGCLocked(floor core.LSN) bool {
	if n.wiped {
		return false
	}
	if n.pgmrpl < floor {
		floor = n.pgmrpl
	}
	if floor <= n.gcTail || n.gcLogLocked(floor) == 0 {
		return false
	}
	// Trim delta chains below the floor: the history lives on in the page
	// tier's materialized bases, not here. The chain bookkeeping exists
	// only so StripePages can report page tails to the rebalancer.
	n.cutDirtyLocked(floor)
	return true
}

// GCTail returns the highest log LSN garbage collected so far — the point
// below which the segment's history lives only in materialized pages.
func (n *Node) GCTail() core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gcTail
}

// ChainLength returns the delta-chain length of a page (0 if unknown). The
// harness uses it to demonstrate that background materialization bounds
// read-time apply work.
func (n *Node) ChainLength(id core.PageID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil {
		return 0
	}
	return len(ps.chain)
}

// BasePageLSN returns the LSN of the materialized base image of a page
// (ZeroLSN if the page has never been coalesced).
func (n *Node) BasePageLSN(id core.PageID) core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil || ps.base == nil {
		return core.ZeroLSN
	}
	return ps.base.LSN()
}
