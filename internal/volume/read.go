package volume

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/page"
	"aurora/internal/storage"
	"aurora/internal/trace"
)

// readCounters are the per-instance tallies the shared read path bumps: the
// writer's surface in Stats, a replica reader's stay private to it.
type readCounters struct {
	served      atomic.Uint64 // logical reads that returned a page
	retries     atomic.Uint64 // attempts a storage node refused
	geomRetries atomic.Uint64 // re-routes after ErrStaleGeometry
}

// readPage is the one page-read path (§4.2.3: no read quorum — the database
// tracks segment completeness, asks a single segment complete through the
// read point, and the node re-verifies). The writer and every replica reader
// go through it; they differ only in tail — where the completeness demanded
// of the routed PG comes from (the writer's durability window, or the tails a
// replica learned from the log stream) — and in whose counters are bumped.
//
// from is the reading instance's network identity. A sampled span carried in
// ctx gets each hedged attempt as a child; ctx cancellation abandons the read.
//
// A storage node rejects an attempt framed under a superseded geometry with
// ErrStaleGeometry: the routing table (published atomically by the fleet) is
// reloaded and the read re-routed, for as long as the nack is explained by a
// table newer than the one the round presented. Each extra round therefore
// costs the volume one more published epoch, which bounds the loop — a fixed
// round count does not: a small volume under the race detector flips stripes
// faster than three rounds can chase them.
func (f *Fleet) readPage(ctx context.Context, from netsim.NodeID, id core.PageID, readPoint core.LSN, tail func(core.PGID) core.LSN, ctr *readCounters) (page.Page, error) {
	sp := trace.FromContext(ctx)
	myAZ, _ := f.cfg.Net.NodeAZ(from)
	for {
		// Route through the geometry in force at the read point: a snapshot
		// read below a stripe cutover goes to the stripe's old PG, which
		// retains every record at or below the cutover (GC is bounded by the
		// MRPL). The epoch presented to the node is the current one — the
		// check catches a caller that has not yet learned of a flip, not a
		// historical route.
		curEpoch := f.Geometry().Epoch()
		pg := f.PGOfAt(id, readPoint)
		// required may exceed readPoint when the tail advanced concurrently;
		// that only makes the completeness demand conservative, never wrong.
		required := tail(pg)
		if f.q.Split() && readPoint < required {
			// Page replicas learn the redo stream asynchronously, so demanding
			// completeness through the durable tail would put every read behind
			// a catch-up pull. Completeness through the read point is the tight
			// sufficient demand: the version served materializes only records
			// with LSN <= readPoint, and SCL >= readPoint proves every one of
			// this segment's records in that prefix is present.
			required = readPoint
		}
		replicas := f.Replicas(pg)
		cands := f.health.Order(pg, replicas, myAZ, required)

		// Hedged read: one attempt at a time, with a deadline derived from the
		// PG's observed latency percentiles; an attempt that overruns it races
		// a hedge to the next-best replica (§4.2.3 without quorum reads). When
		// a winner lands, the losing attempts are actively canceled.
		p, err := f.health.runHedged(ctx, pg, cands, func(actx context.Context, i int, hedged bool) (page.Page, error) {
			n := replicas[i]
			asp := sp.Child("read.attempt")
			trace.Annotate(asp, "replica", i)
			trace.Annotate(asp, "node", n.NodeID())
			if hedged {
				trace.Annotate(asp, "hedge", true)
			}
			defer asp.End()
			if err := sendHop(actx, f.cfg.Net, asp, "net.req", from, n.NodeID(), reqSize); err != nil {
				trace.Annotate(asp, "err", err)
				return nil, err
			}
			ssp := asp.Child("storage.read")
			p, scl, err := n.ReadPageChecked(actx, id, readPoint, required, curEpoch)
			ssp.End()
			if err != nil {
				ctr.retries.Add(1)
				trace.Annotate(asp, "err", err)
				return nil, err
			}
			if err := sendHop(actx, f.cfg.Net, asp, "net.resp", n.NodeID(), from, page.Size); err != nil {
				// The segment served the page but the response never arrived —
				// a distinct gray signature, counted apart from read errors
				// (unless this loser was canceled because a peer already won).
				if !errors.Is(err, context.Canceled) {
					f.health.respDrops.Inc()
				}
				trace.Annotate(asp, "err", err)
				return nil, err
			}
			// The response piggybacks the segment's completeness point.
			f.health.noteSCL(pg, i, scl)
			return p, nil
		})
		if err == nil {
			ctr.served.Add(1)
			return p, nil
		}
		if !errors.Is(err, storage.ErrStaleGeometry) || ctx.Err() != nil || f.Geometry().Epoch() == curEpoch {
			return nil, fmt.Errorf("page %d at %d: %w", id, readPoint, err)
		}
		ctr.geomRetries.Add(1)
	}
}
