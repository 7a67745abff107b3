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
// replica learned from the log stream) — in whose counters are bumped, and in
// life, the reading instance's lifetime (a Reader's; nil for the writer).
//
// The page is read into dst, a page-sized buffer the caller owns — in service
// a recycled buffer-cache frame. Only the caller's own attempts write to it; a
// hedge reads into a page of its own, copied into dst if it wins.
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
func (f *Fleet) readPage(ctx, life context.Context, from netsim.NodeID, id core.PageID, readPoint core.LSN, tail func(core.PGID) core.LSN, ctr *readCounters, dst page.Page) error {
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

		// Hedged read: one attempt at a time, with a deadline derived from the
		// PG's observed latency percentiles; an attempt that overruns it races
		// a hedge to the next-best replica (§4.2.3 without quorum reads). When
		// a winner lands, the losing attempts are actively canceled.
		r := f.health.newRead(ctx, life, pg)
		r.cands = f.health.appendOrder(r.cands, pg, replicas, myAZ, required)
		r.page = pageRead{f: f, from: from, id: id, readPoint: readPoint, required: required,
			epoch: curEpoch, replicas: replicas, ctr: ctr, sp: sp, dst: dst}
		p, err := r.run(r.readFn)
		if err == nil {
			if &p[0] != &dst[0] {
				copy(dst, p) // a hedge's page
			}
			ctr.served.Add(1)
			return nil
		}
		if !errors.Is(err, storage.ErrStaleGeometry) || ctx.Err() != nil || f.Geometry().Epoch() == curEpoch {
			return fmt.Errorf("page %d at %d: %w", id, readPoint, err)
		}
		ctr.geomRetries.Add(1)
	}
}

// pageRead is what the attempts of one hedged page read need to know.
type pageRead struct {
	f         *Fleet
	from      netsim.NodeID
	id        core.PageID
	readPoint core.LSN
	required  core.LSN
	epoch     uint64
	replicas  []*storage.Node
	ctr       *readCounters
	sp        *trace.Span
	dst       page.Page
}

// readAttempt is a page read's attempt on replicas[i]: the request hop, the
// node's verify-on-copy read, the response hop. The caller's attempts read
// into dst; a hedge, whose goroutine may outlive the read, into a page of its
// own.
func (r *hedgedRead) readAttempt(actx context.Context, i int, hedged bool) (page.Page, error) {
	pr := &r.page
	f, n := pr.f, pr.replicas[i]
	asp := pr.sp.Child("read.attempt")
	trace.Annotate(asp, "replica", i)
	trace.Annotate(asp, "node", n.NodeID())
	dst := pr.dst
	if hedged {
		trace.Annotate(asp, "hedge", true)
		dst = make(page.Page, page.Size)
	}
	defer asp.End()
	if err := sendHop(actx, f.cfg.Net, asp, "net.req", pr.from, n.NodeID(), reqSize); err != nil {
		trace.Annotate(asp, "err", err)
		return nil, err
	}
	ssp := asp.Child("storage.read")
	scl, err := n.ReadPageChecked(actx, pr.id, pr.readPoint, pr.required, pr.epoch, dst)
	ssp.End()
	if err != nil {
		pr.ctr.retries.Add(1)
		trace.Annotate(asp, "err", err)
		return nil, err
	}
	if err := sendHop(actx, f.cfg.Net, asp, "net.resp", n.NodeID(), pr.from, page.Size); err != nil {
		// The segment served the page but the response never arrived — a
		// distinct gray signature, counted apart from read errors (unless
		// this loser was canceled because a peer already won).
		if !errors.Is(err, context.Canceled) {
			f.health.respDrops.Inc()
		}
		trace.Annotate(asp, "err", err)
		return nil, err
	}
	// The response piggybacks the segment's completeness point.
	f.health.noteSCL(r.pg, i, scl)
	return dst, nil
}
