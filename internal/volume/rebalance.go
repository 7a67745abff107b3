package volume

// Live volume growth (§3): Aurora volumes grow by appending protection
// groups on demand. Grow allocates the new PGs, then rebalances stripes of
// the page→PG routing table onto them with a copy + catch-up + cutover
// protocol, while reads and writes continue:
//
//	warm copy   un-fenced: read every page of the stripe at the current
//	            VDL and frame full-image records addressed to the new PG
//	            (FlagPlaced keeps the framer's router from re-routing them
//	            through the still-old geometry).
//	fence       take the geometry fence exclusively: no MTR can frame, so
//	            no new record can route to the stripe. Commits queue behind
//	            the fence; they never fail. Drain the writes in flight
//	            (drainWrites): the VDL covers every allocated LSN and no
//	            sender pipeline holds an old-epoch batch any more.
//	catch-up    re-copy the pages whose old-PG tail moved past the warm
//	            copy (writes that raced it), and pages born after the
//	            enumeration; drain again.
//	cutover     publish a new geometry epoch with the stripe re-pointed,
//	            effective from the current VDL. Storage nodes learn the
//	            epoch and nack stale-epoch traffic; clients re-route.
//	unfence     queued commits frame under the new geometry.
//
// Reads below the cutover LSN still route to the stripe's old PG, which
// keeps the page history (GC is bounded by the MRPL), so snapshot reads
// never observe a half-copied page on the new PG.

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
)

// ErrGrowthInProgress is returned when Grow is called while a previous
// growth is still rebalancing.
var ErrGrowthInProgress = errors.New("volume: growth already in progress")

// GrowthReport summarises one completed Grow call.
type GrowthReport struct {
	AddedPGs     []core.PGID
	FromEpoch    uint64
	ToEpoch      uint64
	StripesMoved int
	PagesCopied  uint64
	Duration     time.Duration
}

// Grow appends n protection groups to the volume and rebalances stripes
// onto them while the workload continues. Writes framed during a stripe's
// brief cutover window queue behind the geometry fence (they never fail);
// reads keep flowing throughout, routed by read point. Growth calls are
// serialised: a second Grow while one is rebalancing returns
// ErrGrowthInProgress.
func (c *Client) Grow(n int) (*GrowthReport, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if !c.growing.CompareAndSwap(false, true) {
		return nil, ErrGrowthInProgress
	}
	defer c.growing.Store(false)

	start := time.Now()
	fromEpoch := c.fleet.Geometry().Epoch()

	// Allocate the PGs and publish the allocation epoch under the fence,
	// with the pipe drained first: nodes nack batches framed under an older
	// epoch, so every outstanding batch must have been delivered before any
	// node learns the new one. The stripe table is unchanged by this step.
	c.geomMu.Lock()
	if err := c.drainWrites(); err != nil {
		c.geomMu.Unlock()
		return nil, fmt.Errorf("volume: grow drain: %w", err)
	}
	added, err := c.fleet.Grow(n)
	if err != nil {
		c.geomMu.Unlock()
		return nil, err
	}
	c.extendSenders()
	c.geomMu.Unlock()

	plan := c.fleet.Geometry().GrowthPlan()
	c.rebalTotal.Add(uint64(len(plan)))
	rep := &GrowthReport{AddedPGs: added, FromEpoch: fromEpoch}
	for _, mv := range plan {
		copied, err := c.migrateStripe(mv)
		rep.PagesCopied += copied
		if err != nil {
			rep.ToEpoch = c.fleet.Geometry().Epoch()
			rep.Duration = time.Since(start)
			return rep, fmt.Errorf("volume: migrate stripe %d to pg %d: %w", mv.Stripe, mv.To, err)
		}
		rep.StripesMoved++
		c.rebalMoved.Add(1)
	}
	rep.ToEpoch = c.fleet.Geometry().Epoch()
	rep.Duration = time.Since(start)
	return rep, nil
}

// migrateStripe moves one stripe of the routing table onto its new PG.
// It returns the number of pages copied (warm + catch-up).
func (c *Client) migrateStripe(mv core.StripeMove) (uint64, error) {
	g := c.fleet.Geometry()
	inStripe := func(id core.PageID) bool { return g.StripeOf(id) == mv.Stripe }

	// Warm copy, un-fenced: traffic continues, racing writes are caught up
	// below. copiedAt records the read point each page was copied at.
	copiedAt := make(map[core.PageID]core.LSN)
	var copied uint64
	for id := range c.stripePages(mv.From, inStripe) {
		at, err := c.copyStripePage(id, mv.To)
		if err != nil {
			return copied, err
		}
		copiedAt[id] = at
		copied++
	}

	// Fence: no MTR can frame while held, so the stripe's record stream is
	// frozen. Drain the pipe: every batch framed under the current epoch is
	// then durable, and delivered to every replica that will take it.
	c.geomMu.Lock()
	defer c.geomMu.Unlock()
	if err := c.drainWrites(); err != nil {
		return copied, fmt.Errorf("volume: fence drain: %w", err)
	}

	// Catch-up: re-copy pages whose old-PG tail outran their warm copy, and
	// pages born after the warm enumeration.
	for id, tail := range c.stripePages(mv.From, inStripe) {
		if at, ok := copiedAt[id]; ok && tail <= at {
			continue
		}
		if _, err := c.copyStripePage(id, mv.To); err != nil {
			return copied, err
		}
		copied++
	}
	if err := c.drainWrites(); err != nil {
		return copied, fmt.Errorf("volume: catch-up drain: %w", err)
	}

	// Cutover: re-point the stripe, effective from the current VDL. Reads
	// below it keep routing to the old PG and its retained history. Derive
	// from the *current* geometry — earlier moves of this plan already
	// advanced the epoch past the snapshot taken for StripeOf above.
	ng, err := c.fleet.Geometry().MoveStripe(mv.Stripe, mv.To)
	if err != nil {
		return copied, err
	}
	if err := c.fleet.PublishGeometry(ng, c.win.VDL()); err != nil {
		return copied, err
	}
	return copied, nil
}

// stripePages enumerates the stripe's pages across the old PG's replicas
// (union, keeping the highest per-page tail seen). After the drain inside
// the fence every durable record is on a write quorum, so the union over
// non-down replicas covers at least the durable tail of every page.
func (c *Client) stripePages(from core.PGID, match func(core.PageID) bool) map[core.PageID]core.LSN {
	out := make(map[core.PageID]core.LSN)
	for _, n := range c.fleet.Replicas(from) {
		for id, tail := range n.StripePages(match) {
			if tail > out[id] {
				out[id] = tail
			}
		}
	}
	return out
}

// drainWrites empties the write path ahead of a geometry epoch publish. The
// caller holds the fence exclusively, so nothing new can be framed; what is
// already framed is waited out twice over. First the VDL reaches the highest
// allocated LSN: every batch is on its write quorum. Then every sender
// pipeline runs idle: the deliveries the quorums did not wait for have landed
// too. Without the second wait such a straggler can arrive after its node
// has learned the new epoch and be nacked ErrStaleGeometry — never retried,
// a hole in that segment that only gossip fills. Both waits are bounded:
// nothing can frame under the fence, and a pipeline drops a redelivery whose
// batches have all resolved. A lost quorum or a closing client releases the
// first wait with the VDL short of its target, which is not a drain.
func (c *Client) drainWrites() error {
	top := c.alloc.HighestAllocated()
	<-c.win.waitFor(top)
	if c.win.VDL() < top {
		if c.closed.Load() {
			return ErrClosed
		}
		return errBehindFailed
	}
	for _, pg := range *c.senders.Load() {
		for _, s := range pg {
			s.waitIdle()
		}
	}
	return nil
}

// copyStripePage reads one page at the current VDL and writes its full image
// to the destination PG, returning the read point the copy reflects. The
// record carries FlagPlaced so the framer's router leaves its deliberate
// destination alone. It does not take the geometry fence itself — a placed
// record cannot be mis-routed by a concurrent cutover — so it is safe both
// un-fenced (warm copy) and while the rebalancer holds the fence exclusively
// (catch-up).
func (c *Client) copyStripePage(id core.PageID, to core.PGID) (core.LSN, error) {
	// Rebalancer IO runs under the client's root context: bounded by the
	// client's lifetime, not by any commit's deadline.
	ctx := c.rootCtx
	p, readPoint, err := c.ReadPage(ctx, id)
	if err != nil {
		return core.ZeroLSN, err
	}
	m := &core.MTR{}
	m.Records = append(m.Records, core.Record{
		Type:  core.RecPageInit,
		PG:    to,
		Page:  id,
		Flags: core.FlagPlaced,
		// Ownership: p is this copy's own page (the storage node never hands
		// out its own buffers), and the framer copies Data into the wire arena
		// before Ship returns — no second defensive copy is needed.
		Data: p.Payload(),
	})
	g, err := c.frame(ctx, []*core.MTR{m})
	if err != nil {
		return core.ZeroLSN, err
	}
	defer g.Release()
	if err := g.Ship(ctx); err != nil {
		return core.ZeroLSN, err
	}
	c.rebalCopied.Add(1)
	return readPoint, nil
}
