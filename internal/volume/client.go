package volume

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/page"
	"aurora/internal/quorum"
	"aurora/internal/trace"
)

// Wire-size constants for request/ack frames.
const (
	reqSize = 64
	ackSize = 64
)

// Errors returned by the client.
var (
	ErrClosed          = errors.New("volume: client closed")
	ErrReadUnavailable = errors.New("volume: no segment can satisfy the read")
)

// Client is the single writer instance's handle on the storage volume. It
// owns the LSN space: it frames MTRs, ships batches, advances the VDL as
// write quorums complete, and routes reads to individual complete segments.
type Client struct {
	fleet *Fleet
	node  netsim.NodeID // the writer's network identity
	q     quorum.Config

	alloc  *core.Allocator
	framer *core.Framer
	win    *durableWindow
	reads  *readRegistry
	epoch  uint64

	// rootCtx bounds the client's lifecycle: sender pipelines, retry
	// backoffs and rebalancer waits all select on it. Close cancels it after
	// draining; Crash cancels it immediately.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// senders is the per-PG, per-replica delivery pipeline table. It is
	// copy-on-write (Grow appends PGs while traffic continues) — load once
	// per use, never cache across a blocking call.
	senders    atomic.Pointer[[][]*replicaSender]
	noCoalesce bool

	// geomMu is the geometry fence. Framing takes it shared; the rebalancer
	// takes it exclusively for the brief catch-up + cutover window of each
	// stripe move, so no MTR can be framed (and routed) while the stripe's
	// owner changes. Commits queue behind the fence; they never fail.
	geomMu  sync.RWMutex
	growing atomic.Bool

	closed atomic.Bool

	mtrs        atomic.Uint64
	frames      atomic.Uint64 // framing critical sections (groups count once)
	recsWritten atomic.Uint64
	logBytes    atomic.Uint64 // bytes delivered synchronously for commit ack
	writeFails  atomic.Uint64
	pageReads   readCounters // bumped by the shared read path (read.go)

	rebalTotal  atomic.Uint64 // stripes scheduled by Grow calls
	rebalMoved  atomic.Uint64 // stripes cut over
	rebalCopied atomic.Uint64 // pages copied by the rebalancer
}

// ClientConfig configures a writer session.
type ClientConfig struct {
	WriterNode netsim.NodeID
	WriterAZ   netsim.AZ
	// LAL is the LSN allocation limit; 0 selects core.DefaultLAL.
	LAL int64
	// NoCoalesce is an ablation: each framed batch flies as its own
	// network message instead of coalescing with queued neighbours.
	NoCoalesce bool
}

// Bootstrap attaches a brand-new writer to an empty fleet (a freshly
// created volume). For a volume with history, use Recover.
func Bootstrap(f *Fleet, cfg ClientConfig) *Client {
	return newClient(f, cfg, core.ZeroLSN, nil, 0)
}

func newClient(f *Fleet, cfg ClientConfig, start core.LSN, tails map[core.PGID]core.LSN, epoch uint64) *Client {
	f.cfg.Net.AddNode(cfg.WriterNode, cfg.WriterAZ)
	alloc := core.NewAllocator(start, cfg.LAL)
	rootCtx, rootCancel := context.WithCancel(context.Background())
	win := newDurableWindow(start, tails)
	c := &Client{
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		fleet:      f,
		node:       cfg.WriterNode,
		q:          f.q,
		alloc:      alloc,
		framer:     core.NewFramer(alloc, tails),
		win:        win,
		reads:      newReadRegistry(win),
		epoch:      epoch,
	}
	senders := make([][]*replicaSender, f.PGs())
	for g := range senders {
		replicas := f.Replicas(core.PGID(g))
		senders[g] = make([]*replicaSender, len(replicas))
		for i, n := range replicas {
			senders[g][i] = newReplicaSender(c, core.PGID(g), i, n, cfg.NoCoalesce)
		}
	}
	c.noCoalesce = cfg.NoCoalesce
	c.senders.Store(&senders)
	// Placement is resolved at frame time from the fleet's current geometry:
	// an MTR built before a stripe cutover but framed after it must route to
	// the stripe's new PG (see core.Framer).
	c.framer.SetPlacement(f.PGOf, func() uint64 { return f.Geometry().Epoch() })
	// Tenancy is stamped inside the framing pass: every record and batch
	// carries the fleet's volume from the moment it is encoded, and storage
	// verifies the stamp on ingest.
	c.framer.SetVolume(f.cfg.Vol)
	return c
}

// extendSenders appends delivery pipelines for protection groups added by
// Grow. Called under the exclusive geometry fence.
func (c *Client) extendSenders() {
	cur := *c.senders.Load()
	n := c.fleet.PGs()
	if n <= len(cur) {
		return
	}
	senders := make([][]*replicaSender, len(cur), n)
	copy(senders, cur)
	for g := len(cur); g < n; g++ {
		replicas := c.fleet.Replicas(core.PGID(g))
		row := make([]*replicaSender, len(replicas))
		for i, node := range replicas {
			row[i] = newReplicaSender(c, core.PGID(g), i, node, c.noCoalesce)
		}
		senders = append(senders, row)
	}
	c.senders.Store(&senders)
}

// VDL returns the current volume durable LSN.
func (c *Client) VDL() core.LSN { return c.win.VDL() }

// WaitDurable blocks until the VDL reaches lsn (or a lost quorum or a close).
// This is the primitive behind asynchronous commit: the WAL protocol's
// equivalent is completing a commit if and only if VDL >= commit LSN
// (§4.2.2).
func (c *Client) WaitDurable(lsn core.LSN) { <-c.win.waitFor(lsn) }

// HighestAllocated returns the highest LSN handed to a framed group so far.
func (c *Client) HighestAllocated() core.LSN { return c.alloc.HighestAllocated() }

// Epoch returns the client's recovery epoch.
func (c *Client) Epoch() uint64 { return c.epoch }

// LAL returns the LSN allocation limit. Group framing must keep a group's
// total record count safely inside this window: an allocation larger than
// the whole window can never be granted, because the VDL cannot advance
// past the group's own unshipped records.
func (c *Client) LAL() uint64 { return c.alloc.Limit() }

// Fleet returns the underlying storage fleet.
func (c *Client) Fleet() *Fleet { return c.fleet }

// PGOf maps a page to its protection group under the current geometry.
func (c *Client) PGOf(id core.PageID) core.PGID { return c.fleet.PGOf(id) }

// PGOfAt maps a page to the protection group holding its history as of
// readPoint (see Fleet.PGOfAt).
func (c *Client) PGOfAt(id core.PageID, readPoint core.LSN) core.PGID {
	return c.fleet.PGOfAt(id, readPoint)
}

// DurableTail returns the highest record LSN of a protection group at or
// below the VDL — the completeness a read of that PG requires (§4.2.3).
func (c *Client) DurableTail(pg core.PGID) core.LSN { return c.win.durableTail(pg) }

// LowWaterMark returns the current MRPL (see readRegistry): the oldest view
// any reader of this writer — its own page reads and transactions, and every
// attached read replica — can still request (§4.2.3).
func (c *Client) LowWaterMark() core.LSN { return c.reads.lowWaterMark(c.win.VDL()) }

// RegisterReadPoint establishes a read view at the current VDL, holding
// the volume's low-water mark down until released. The engine uses it for
// transaction snapshots; page reads register internally.
func (c *Client) RegisterReadPoint() (core.LSN, func()) {
	p, tok := c.reads.register()
	return p, func() { c.reads.release(tok) }
}

// GroupWrite is a framed group of mini-transactions — the unit the commit
// pipeline's framer stage produces, and the entry of the writer's durability
// window (see durableWindow). Framing (LSN assignment + arena encode) is
// cheap and can run under engine latches; shipping waits for write quorums
// and must not. The group's records occupy one contiguous LSN range and its
// per-PG batches are merged across members (so a busy PG costs one quorum
// per group, not per commit).
//
// A shipped group has one completion with one outcome — nil once the window
// has retired it, which is VDL >= MaxCPL; quorum.ErrQuorumImpossible, wrapped
// or bare, when a group ahead of it or it itself can never reach its quorum;
// ErrClosed when the client went away first (see ShipAsync). The first
// quorum.ErrQuorumImpossible is the client's last word on writes: the VDL can
// never pass the failed group, so every group framed behind it gets the same
// outcome, and availability comes back only with a recovered writer (Recover),
// which annuls the unfinished tail — restarting the replicas does not revive
// this client.
//
// The group holds the creator reference on its arena-backed FramedGroup: the
// caller must Release it exactly once when it is done with the write (in the
// completion, after Ship returns, or on an error path). Senders hold their
// own references, so releasing never invalidates an in-flight delivery — even
// one that outlives a deadline-detached committer.
type GroupWrite struct {
	c *Client
	g *core.FramedGroup

	// The group's LSN range. last is also its highest CPL: a group is whole
	// MTRs and the framer ends each on its CPL.
	first, last core.LSN
	batches     []groupBatch
	inline      [inlineBatches]groupBatch // backs batches for a group of up to inlineBatches PGs

	// Set by ShipAsync before the group enters the window. sp is the caller's
	// group.ship span, nil unless the commit is sampled, and wait the wait span
	// open under it: quorum.wait until the group's own batches have resolved,
	// vdl.wait from then until it is settled (see await).
	then func(error)
	sp   *trace.Span
	wait atomic.Pointer[trace.Span]

	// Guarded by the window's mutex until the group is settled, and then owned
	// by the goroutine that settled it.
	unresolved int         // batches whose quorum has not resolved
	settled    bool        // out of the window, outcome in err
	err        error       // nil: durable
	next       *GroupWrite // chains the groups one window call settled

	released atomic.Bool
}

// inlineBatches is how many per-PG batches a GroupWrite holds without a
// slice of its own: a commit's rows and its commit record usually land on a
// few PGs.
const inlineBatches = 4

// groupBatch is the window's view of one per-PG batch: copied out of the
// framed group so that it outlives the arena, which is recycled when the
// last delivery lets go of it — possibly before the group retires.
type groupBatch struct {
	pg   core.PGID
	last core.LSN // the batch's highest record LSN
	tr   quorum.Tracker
	sp   *trace.Span // batch.ship span of a sampled commit; nil otherwise
}

// MaxCPL returns the group's highest consistency point: VDL >= MaxCPL
// implies every member of the group is durable (the group's LSN range is
// contiguous). It stays valid after Release.
func (g *GroupWrite) MaxCPL() core.LSN { return g.last }

// Release drops the group write's reference on its framed group. Idempotent.
func (g *GroupWrite) Release() {
	if !g.released.Swap(true) {
		g.g.Release()
	}
}

// frame frames ms through the arena pipeline. Volume stamping happens inside
// the framer (SetVolume at client construction). The caller holds the geometry
// fence, shared (FrameMTRs) or exclusive (the rebalancer's catch-up), or
// frames only explicitly placed records (its warm copy).
func (c *Client) frame(ctx context.Context, ms []*core.MTR) (*GroupWrite, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	fg, err := c.framer.FrameGroup(ctx, ms)
	if err != nil {
		return nil, err
	}
	trCfg := c.q
	if c.q.Split() {
		// Role-split quorum (Taurus): commit acknowledgment waits only on
		// the synchronous log tier.
		trCfg = c.q.LogTier()
	}
	g := &GroupWrite{
		c: c, g: fg,
		// Batches are in first-touch order, so the first one starts on the
		// group's first record.
		first:      fg.Batches[0].First,
		last:       fg.CPLs[len(fg.CPLs)-1],
		unresolved: len(fg.Batches),
	}
	if len(fg.Batches) <= inlineBatches {
		g.batches = g.inline[:len(fg.Batches)]
	} else {
		g.batches = make([]groupBatch, len(fg.Batches))
	}
	total := 0
	for i := range fg.Batches {
		b := &fg.Batches[i]
		g.batches[i] = groupBatch{pg: b.PG, last: b.Last, tr: quorum.NewTracker(trCfg)}
		total += b.Records
	}
	c.mtrs.Add(uint64(len(ms)))
	c.frames.Add(1)
	c.recsWritten.Add(uint64(total))
	return g, nil
}

// FrameMTRs frames a group of MTRs through one LSN-allocation/ordering
// critical section, under the shared geometry fence, without performing any
// IO: the group is on the wire once it is shipped, and until then it
// occupies the allocation window. The LAL back-pressure wait inside framing
// selects on ctx. The MTRs' own records are stamped with their LSNs in
// place, so callers can compute per-page stamp LSNs from each MTR directly
// (core.MTR.LastLSNFor).
func (c *Client) FrameMTRs(ctx context.Context, ms []*core.MTR) (*GroupWrite, error) {
	c.geomMu.RLock()
	defer c.geomMu.RUnlock()
	return c.frame(ctx, ms)
}

// ShipAsync enters the group into the durability window, hands every batch to
// its replicas' sender pipelines from the calling goroutine, and returns.
// then is the group's completion: it runs exactly once, with the group's
// outcome, on the goroutine that settles the group — the sender loop whose ack
// or nack decided it, Crash or Close sweeping what was still pending, or this
// one, possibly halfway through the enqueues, when the window or a pipeline
// has already shut — so it must not block. It may Release: the enqueues run on
// a reference of their own. No deadline reaches the deliveries: durability is
// decided by the quorums, not by whoever is waiting. A sampled sp gets a
// batch.ship child per batch (parenting its replica flights, ended when it
// resolves), a quorum.wait child until the last batch has resolved, and a
// vdl.wait child from then until the group is settled. A group ships exactly
// once.
func (g *GroupWrite) ShipAsync(sp *trace.Span, then func(error)) {
	c := g.c
	g.then, g.sp = then, sp
	if sp != nil {
		g.wait.Store(sp.Child("quorum.wait"))
	}
	g.g.Retain()
	defer g.g.Release()
	if err := c.win.register(g); err != nil {
		g.settled, g.err = true, err
		c.complete(g)
		return
	}
	all := *c.senders.Load()
	for i := range g.batches {
		b := &g.g.Batches[i]
		senders := all[int(b.PG)%len(all)]
		if c.q.Split() {
			// The log tier is the low replica indices, so sender and tracker
			// indices keep lining up. Page replicas receive nothing in the
			// foreground; they pull the redo stream from the log tier
			// asynchronously via gossip.
			senders = senders[:c.q.LogV]
		}
		bsp := sp.Child("batch.ship")
		trace.Annotate(bsp, "pg", b.PG)
		trace.Annotate(bsp, "records", b.Records)
		g.batches[i].sp = bsp
		// Each enqueue retains the framed group once on the pipeline's
		// behalf, so the arena stays alive for exactly as long as any replica
		// might read the batch's wire view — including retried flights that
		// outlive a deadline-detached committer.
		sh := shipment{wire: b.Wire, gw: g, bi: i}
		for _, s := range senders {
			g.g.Retain()
			s.enqueue(sh)
		}
	}
}

// await moves a sampled group on to its next wait span. Whoever takes a span
// out of the slot ends it; complete leaves the slot empty, so a transition
// that loses the race with the group's completion — the completer is whichever
// goroutine settles the group, not necessarily the one whose ack brought its
// last quorum in — finds nothing there and ends its own span on the spot.
func (g *GroupWrite) await(name string) {
	next := g.sp.Child(name)
	if prev := g.wait.Swap(next); prev != nil {
		prev.End()
	} else {
		next.End()
	}
}

// Ship is ShipAsync for a caller with nothing better to do: it returns the
// group's outcome — nil only once the group is durable — or, when ctx fires
// first, an error wrapping ctx's (only the waiter detaches; the group still
// ships and settles). After the first quorum.ErrQuorumImpossible every later
// Ship on this client returns it too (see GroupWrite). A sampled span carried
// in ctx parents the ship's spans.
func (g *GroupWrite) Ship(ctx context.Context) error {
	done := make(chan struct{})
	g.ShipAsync(trace.FromContext(ctx), func(error) { close(done) })
	select {
	case <-done:
		return g.err // settled before the completion ran, and final
	case <-ctx.Done():
		return fmt.Errorf("volume: durability wait abandoned: %w", ctx.Err())
	}
}

// batchResolved runs on the goroutine whose ack or nack resolved batch bi's
// quorum — a sender loop, or the enqueuer when the pipeline had already
// stopped. The window settles what the resolution decided and publishes the
// per-PG tails and then the VDL in one critical section; the allocator's
// back-pressure bound follows, and only then the completions, so a completion
// that reports durability never runs below the VDL.
func (g *GroupWrite) batchResolved(bi int) {
	b := &g.batches[bi]
	err := b.tr.Err()
	if err != nil {
		trace.Annotate(b.sp, "err", err)
	}
	b.sp.End()
	c := g.c
	vdl, settled, quorate := c.win.resolve(g, err != nil)
	if quorate && g.sp != nil {
		g.await("vdl.wait")
	}
	c.alloc.AdvanceVDL(vdl)
	c.complete(settled)
}

// complete delivers the completions of the groups one window call settled,
// in LSN order.
func (c *Client) complete(settled *GroupWrite) {
	for g := settled; g != nil; g = g.next {
		if g.err != nil {
			c.writeFails.Add(1)
		}
		if g.sp != nil {
			wait := g.wait.Swap(nil)
			if g.err != nil {
				trace.Annotate(wait, "err", g.err)
			}
			wait.End()
		}
		g.then(g.err)
	}
}

// WriteMTR frames a mini-transaction into the log and ships it to the
// storage fleet, returning once it is durable: every batch on its 4/6 write
// quorum and the VDL at or past the returned LSN, the MTR's consistency
// point. An error wrapping quorum.ErrQuorumImpossible is final for the client,
// not for the one write: no later WriteMTR can succeed, and the writer has to
// be recovered (see GroupWrite).
func (c *Client) WriteMTR(ctx context.Context, m *core.MTR) (core.LSN, error) {
	g, err := c.FrameMTRs(ctx, []*core.MTR{m})
	if err != nil {
		return core.ZeroLSN, err
	}
	defer g.Release()
	return g.MaxCPL(), g.Ship(ctx)
}

// ReadPage reads the latest durable version of a page into a new page (see
// ReadPageInto) and returns it with the read point it reflects.
func (c *Client) ReadPage(ctx context.Context, id core.PageID) (page.Page, core.LSN, error) {
	p := make(page.Page, page.Size)
	readPoint, err := c.ReadPageInto(ctx, id, p)
	if err != nil {
		return nil, readPoint, err
	}
	return p, readPoint, nil
}

// ReadPageInto reads the latest durable version of a page into dst, a
// page-sized buffer — a buffer-cache frame on a miss. It establishes a read
// point (the current VDL), computes the completeness the owning PG requires,
// and asks a single segment known to be complete — quorum reads are never
// needed in the normal path (§4.1, §4.2.3). It returns the read point the page
// reflects. A sampled span carried in ctx gets each hedged attempt as a child;
// ctx cancellation abandons the read. On error dst holds anything.
func (c *Client) ReadPageInto(ctx context.Context, id core.PageID, dst page.Page) (core.LSN, error) {
	if c.closed.Load() {
		return core.ZeroLSN, ErrClosed
	}
	readPoint, tok := c.reads.register()
	defer c.reads.release(tok)
	return readPoint, c.readAt(ctx, id, readPoint, dst)
}

// ReadPageAt reads a page into a new page at a caller-held read point (a
// transaction snapshot previously registered with RegisterReadPoint).
func (c *Client) ReadPageAt(ctx context.Context, id core.PageID, readPoint core.LSN) (page.Page, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	p := make(page.Page, page.Size)
	if err := c.readAt(ctx, id, readPoint, p); err != nil {
		return nil, err
	}
	return p, nil
}

// readAt runs the shared read path (Fleet.readPage) as the writer: the
// completeness demanded of the routed PG is its durable tail, which the
// writer tracks itself from the records it framed and the VDL.
func (c *Client) readAt(ctx context.Context, id core.PageID, readPoint core.LSN, dst page.Page) error {
	return c.fleet.readPage(ctx, nil, c.node, id, readPoint, c.win.durableTail, &c.pageReads, dst)
}

// Stats is a snapshot of client counters, including the fleet's
// gray-failure tolerance counters (hedges, redeliveries, self-repairs).
type Stats struct {
	MTRs           uint64
	Frames         uint64 // framing critical sections (a group counts once)
	RecordsWritten uint64
	ReadsServed    uint64
	ReadRetries    uint64
	WriteRetries   uint64 // redelivered flights on this client's fleet
	WriteFailures  uint64
	Hedges         uint64 // hedged read attempts launched
	HedgeWins      uint64 // hedges that returned first
	HedgeCancels   uint64 // losing attempts actively canceled after a win
	AutoRepairs    uint64 // suspect replicas repaired by the fleet monitor
	RespDrops      uint64 // responses lost after a successful segment read
	VDL            core.LSN
	HighestLSN     core.LSN
	Backlog        int // shipped groups not yet settled (0 when idle)

	// The sender pipelines' queue (see replicaSender). Shipments per flight is
	// the coalescing factor; a waited shipment sat out a round trip that was
	// not its own.
	Flights         uint64 // physical exchanges with a replica, redeliveries included
	Shipments       uint64 // batches x replicas handed to the senders
	ShipmentsWaited uint64 // enqueued with the replica's whole window in flight
	SenderWorkers   int    // delivery goroutines: one per (PG, replica), plus what overlap started

	// Role-split byte accounting (Taurus, PAPERS.md). LogBytes counts
	// bytes delivered synchronously on the commit path (all replicas when
	// the split is off, log tier only when on); PageFeedBytes counts the
	// asynchronous log→page feed. "Fewer synchronous bytes per commit" is
	// LogBytes/commits shrinking while PageFeedBytes absorbs the rest.
	LogBytes      uint64
	PageFeedBytes uint64

	// Geometry & rebalancing (volume growth, §3).
	GeometryEpoch         uint64 // current routing-table epoch
	PGs                   int    // protection groups in the fleet
	RebalanceStripesTotal uint64 // stripe moves scheduled by Grow
	RebalanceStripesMoved uint64 // stripe moves cut over
	RebalancePagesCopied  uint64 // pages copied onto new PGs
	GeomRetries           uint64 // reads re-routed after a stale-geometry nack
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	hs := c.fleet.health.Stats()
	var flights, shipments, waited uint64
	workers := 0
	for _, pg := range *c.senders.Load() {
		for _, s := range pg {
			s.mu.Lock()
			flights += s.flights
			shipments += s.shipments
			waited += s.waited
			workers += s.workers
			s.mu.Unlock()
		}
	}
	return Stats{
		GeometryEpoch:         c.fleet.Geometry().Epoch(),
		PGs:                   c.fleet.PGs(),
		RebalanceStripesTotal: c.rebalTotal.Load(),
		RebalanceStripesMoved: c.rebalMoved.Load(),
		RebalancePagesCopied:  c.rebalCopied.Load(),
		GeomRetries:           c.pageReads.geomRetries.Load(),

		MTRs:            c.mtrs.Load(),
		Frames:          c.frames.Load(),
		RecordsWritten:  c.recsWritten.Load(),
		ReadsServed:     c.pageReads.served.Load(),
		ReadRetries:     c.pageReads.retries.Load(),
		WriteRetries:    hs.Retries,
		WriteFailures:   c.writeFails.Load(),
		Hedges:          hs.Hedges,
		HedgeWins:       hs.HedgeWins,
		HedgeCancels:    hs.HedgeCancels,
		AutoRepairs:     hs.AutoRepairs,
		RespDrops:       hs.RespDrops,
		VDL:             c.win.VDL(),
		HighestLSN:      c.alloc.HighestAllocated(),
		Backlog:         c.win.backlog(),
		Flights:         flights,
		Shipments:       shipments,
		ShipmentsWaited: waited,
		SenderWorkers:   workers,
		LogBytes:        c.logBytes.Load(),
		PageFeedBytes:   c.fleet.PageFeedBytes(),
	}
}

// Crash tears the writer down abruptly: the root context is canceled (any
// in-flight send or backoff is abandoned), pending shipments are nacked, and
// whatever the nacks did not settle is abandoned: every group gets its
// completion, none as durable that the window did not retire, and every
// VDL waiter is released short of its target. The storage
// fleet is untouched — its durable state is what Recover reads.
func (c *Client) Crash() {
	if c.closed.Swap(true) {
		return
	}
	c.rootCancel()
	for _, pg := range *c.senders.Load() {
		for _, s := range pg {
			s.stop()
		}
	}
	c.complete(c.win.abandon())
	c.alloc.Close()
	c.fleet.cfg.Net.RemoveNode(c.node)
}

// Close shuts the writer down gracefully: no new operations are accepted
// and the sender pipelines drain their queued flights (delivering, not
// nacking). Every quorum resolves on the goroutine that delivered its last
// verdict, so once the pipelines have drained the VDL is final; only then are
// the groups still in the window (framed but never retired) abandoned, the
// waiters still short of their target released, the root context canceled
// and the allocator torn down.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, pg := range *c.senders.Load() {
		for _, s := range pg {
			s.drain()
		}
	}
	c.complete(c.win.abandon())
	c.rootCancel()
	c.alloc.Close()
	c.fleet.cfg.Net.RemoveNode(c.node)
}
