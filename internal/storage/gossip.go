package storage

import (
	"context"
	"sort"

	"aurora/internal/core"
)

// gossipBatchLimit bounds how many records one gossip exchange transfers.
const gossipBatchLimit = 512

// gossipRequestSize is the wire size of a gossip pull request.
const gossipRequestSize = 64

// GossipOnce runs one round of peer-to-peer gossip: the node asks each
// reachable peer for records it is missing (Figure 4 step 4). Gossip is the
// mechanism that fills holes left by silently dropped batches, so the
// writer never has to retry into a slow or flaky replica — the 4/6 quorum
// absorbs it and gossip repairs it (§3.3, §4.1).
//
// The exchange is a pull: the requester advertises its SCL and the peer
// returns records with larger LSNs. It returns the number of records
// ingested this round.
//
// Under a role split this same pull IS the log→page feed: page replicas
// receive no foreground batches and learn the redo stream exclusively by
// pulling it from the log tier (or from page peers that are ahead).
// PauseFeed idles this background round without touching the read-time
// catch-up pull.
func (n *Node) GossipOnce() int {
	if n.down.Load() || n.feedPaused.Load() {
		return 0
	}
	// Gossip runs under the node's root context: a stopping node abandons
	// its in-flight pulls instead of finishing the round.
	total := n.pullRound(n.runContext())
	n.gossips.Add(1)
	return total
}

// catchUpTo pulls from peers until the node's SCL reaches target, a round
// makes no progress, or the bounded round budget runs out. It ignores
// PauseFeed — a paused background feed must not break the read path — and
// runs under the caller's (read) context so a canceled hedge stops
// pulling immediately. Reports whether target was reached.
func (n *Node) catchUpTo(ctx context.Context, target core.LSN) bool {
	const rounds = 32
	for i := 0; i < rounds; i++ {
		if ctx.Err() != nil || n.down.Load() {
			return false
		}
		if n.SCL() >= target {
			return true
		}
		if n.pullRound(ctx) == 0 {
			return n.SCL() >= target
		}
	}
	return n.SCL() >= target
}

// pullRound runs one pull pass over all reachable peers, returning the
// number of fresh records ingested.
func (n *Node) pullRound(ctx context.Context) int {
	total := 0
	n.mu.Lock()
	peers := append([]*Node(nil), n.peers...)
	n.mu.Unlock()
	// Prefer same-AZ peers: every AZ holds a complete copy of the stream
	// under both schemes (two full replicas classically, one log replica
	// under a role split), so pulling locally first keeps the steady-state
	// feed off the cross-AZ links and off their latency.
	sort.SliceStable(peers, func(i, j int) bool {
		return (peers[i].cfg.AZ == n.cfg.AZ) && (peers[j].cfg.AZ != n.cfg.AZ)
	})
	for _, peer := range peers {
		if ctx.Err() != nil {
			break
		}
		if peer.down.Load() {
			continue
		}
		// Cheap pre-check: nothing to pull if the peer is not ahead and we
		// have no holes to fill.
		myscl := n.SCL()
		if peer.SCL() <= myscl && !n.HasGaps() {
			continue
		}
		if err := n.cfg.Net.Send(ctx, n.cfg.Node, peer.cfg.Node, gossipRequestSize); err != nil {
			continue
		}
		recs, vdl, pgmrpl := peer.recordsAfter(myscl, gossipBatchLimit)
		if len(recs) == 0 {
			continue
		}
		size := 0
		for _, r := range recs {
			size += r.BodySize()
		}
		if err := n.cfg.Net.Send(ctx, peer.cfg.Node, n.cfg.Node, size); err != nil {
			continue
		}
		if err := n.ssd.Write(size); err != nil {
			continue
		}
		fresh := 0
		n.mu.Lock()
		if !n.wiped {
			for _, r := range recs {
				if n.ingestLocked(r) {
					fresh++
				}
			}
			n.observePointsLocked(vdl, pgmrpl)
		}
		n.mu.Unlock()
		n.feedBytes.Add(uint64(size))
		peer.gossiped.Add(uint64(fresh))
		total += fresh
	}
	return total
}

// recordsAfter returns up to limit retained records with LSN > after,
// sorted by ascending LSN, along with the node's view of VDL and PGMRPL so
// consistency points propagate epidemically too. The slice is the caller's:
// the pointers are copied out of the sorted log under the lock (a binary
// search plus a bounded copy — the pull runs every couple of milliseconds per
// page replica under a role split, on the lock of the commit ack path), so it
// stays valid when a later GC slides the log; the records themselves are
// immutable once filed.
func (n *Node) recordsAfter(after core.LSN, limit int) ([]*core.Record, core.LSN, core.LSN) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.after(after, limit), n.vdl, n.pgmrpl
}

// SyncGroup runs gossip rounds across a group of nodes until no node makes
// progress — used by volume recovery, which first lets the storage service
// repair itself before computing durable points (§4.1), and by tests.
func SyncGroup(nodes []*Node) {
	for {
		progress := 0
		for _, nd := range nodes {
			progress += nd.GossipOnce()
		}
		if progress == 0 {
			return
		}
	}
}
