package storage

import (
	"context"
	"fmt"
	"slices"

	"aurora/internal/core"
	"aurora/internal/page"
)

// ScrubOnce validates the CRC of every materialized base page (Figure 4
// step 8) and repairs corrupt pages by fetching a healthy copy from a peer
// replica. It returns the number of pages found corrupt.
func (n *Node) ScrubOnce() int {
	if n.down.Load() {
		return 0
	}
	n.mu.Lock()
	var bad []core.PageID
	for id, ps := range n.pages {
		if ps.base == nil {
			continue
		}
		if err := ps.base.VerifyChecksum(); err != nil {
			bad = append(bad, id)
		} else {
			n.scrubOK.Add(1)
		}
	}
	peers := n.peers // SetPeers publishes a new slice, never writes this one
	n.mu.Unlock()

	ctx := n.runContext()
	for _, id := range bad {
		if n.repairPageFromPeers(ctx, id, peers) {
			n.scrubFix.Add(1)
		}
	}
	return len(bad)
}

// repairPageFromPeers replaces a corrupt base page with a verified copy
// from the first peer that has a complete one, merging the peer's delta chain
// so no record is lost. Complete means the peer's SCL has reached this node's
// GC tail: the records at or below the tail were folded into the base being
// dropped and live nowhere else here, so a peer that lacks one of them — a
// page's first record, say, that it never received and its peers have since
// collected — would hand over a chain that starts late over no base, and the
// page would come back as a zero page with the SCL vouching for it. With no
// complete peer the page stays corrupt and refused.
func (n *Node) repairPageFromPeers(ctx context.Context, id core.PageID, peers []*Node) bool {
	for _, peer := range peers {
		if peer.down.Load() || ctx.Err() != nil {
			continue
		}
		if err := n.cfg.Net.Send(ctx, n.cfg.Node, peer.cfg.Node, gossipRequestSize); err != nil {
			continue
		}
		base, chain, scl, ok := peer.pageCopy(id)
		if !ok || scl < n.GCTail() {
			continue
		}
		size := len(base)
		for _, r := range chain {
			size += r.BodySize()
		}
		if err := n.cfg.Net.Send(ctx, peer.cfg.Node, n.cfg.Node, size); err != nil {
			continue
		}
		if base != nil {
			if err := base.VerifyChecksum(); err != nil {
				continue // the peer's copy is corrupt too; try the next one
			}
		}
		if err := n.ssd.Write(size); err != nil {
			return false
		}
		n.mu.Lock()
		n.installRepairLocked(id, base, chain)
		n.mu.Unlock()
		return true
	}
	return false
}

// installRepairLocked replaces a page's base with a verified copy borrowed
// from a peer and brings the chain up to what the peer holds above it. The
// node's own records at or below the new base are reflected in it and leave
// the chain. A record the peer has and this node lacks is filed through the
// one filing path, so the log holds it: the SCL links it, recovery sees its
// CPL, and gossip and backups carry it. Put on the chain alone it would be
// none of these.
func (n *Node) installRepairLocked(id core.PageID, base page.Page, chain []*core.Record) {
	n.dropStagedLocked() // a new base is not an append: the next backup is an image
	ps := n.pageLocked(id)
	ps.base = base
	floor := core.ZeroLSN
	if base != nil {
		floor = base.LSN()
	}
	ps.chain = cutChain(ps.chain, floor)
	for _, r := range chain {
		if r.LSN <= floor || n.ingestLocked(r) {
			continue
		}
		// Refused: held already, annulled, foreign — or collected here. A
		// peer that coalesces behind this node hands over a base older than
		// this node's GC tail; the records between the two are part of the
		// complete prefix this node folded and collected, so they belong on
		// the chain (the base no longer reflects them) and nowhere else.
		onChain := slices.ContainsFunc(ps.chain, func(c *core.Record) bool { return c.LSN == r.LSN })
		if r.LSN <= n.gcTail && r.Vol == n.cfg.Vol && !n.trunc.Annuls(r.LSN) && !onChain {
			n.chainInsertLocked(ps, n.arena.adopt(r))
		}
	}
}

// pageCopy returns a clone of the node's base image and chain for a page,
// with the SCL they are complete through.
func (n *Node) pageCopy(id core.PageID) (page.Page, []*core.Record, core.LSN, bool) {
	if n.down.Load() {
		return nil, nil, 0, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil {
		return nil, nil, 0, false
	}
	var base page.Page
	if ps.base != nil {
		base = ps.base.Clone()
	}
	chain := make([]*core.Record, len(ps.chain))
	copy(chain, ps.chain)
	return base, chain, n.scl, true
}

// CorruptPage flips bytes in the materialized base image of a page — the
// fault the scrubber exists to catch. It reports whether a base image was
// present to corrupt.
func (n *Node) CorruptPage(id core.PageID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil || ps.base == nil {
		return false
	}
	payload := ps.base.Payload()
	payload[0] ^= 0xFF
	payload[len(payload)-1] ^= 0xFF
	return true
}

// RepairFrom re-replicates the entire segment from a healthy peer — the
// repair path behind both permanent disk loss and heat management's
// segment migration (§2.3). The full snapshot crosses the network and is
// written to local disk, which is what makes small segments fast to repair
// and hence MTTR short (§2.2).
func (n *Node) RepairFrom(peer *Node) error {
	if peer.down.Load() {
		return fmt.Errorf("repair source %s: %w", peer.cfg.Node, ErrNodeDown)
	}
	ctx := n.runContext()
	if err := n.cfg.Net.Send(ctx, n.cfg.Node, peer.cfg.Node, gossipRequestSize); err != nil {
		return err
	}
	snap := peer.Snapshot()
	if err := n.cfg.Net.Send(ctx, peer.cfg.Node, n.cfg.Node, len(snap)); err != nil {
		return err
	}
	if err := n.ssd.Write(len(snap)); err != nil {
		return err
	}
	return n.LoadSnapshot(snap)
}
