package engine

import (
	"context"
	"fmt"
	"sync"

	"aurora/internal/control"
	"aurora/internal/core"
	"aurora/internal/trace"
	"aurora/internal/volume"
)

// This file implements the staged group-commit pipeline (§4.2 taken to its
// conclusion): workers apply, hand their records to the log, and commits
// complete asynchronously as the VDL advances — with no synchronous point
// under the engine latch.
//
//	Stage 1 — apply.   Tx.Commit reserves a pipeline slot (the only place a
//	    committer can stall on back-pressure, and it holds no latch there),
//	    applies its write set under a short exclusive latch, enqueues its
//	    MTR, and releases the latch before any framing or LAL throttling.
//	    Enqueue happens under the latch so queue order always equals apply
//	    order — the log must replay in the order the tree changed.
//	Stage 2 — framing. A dedicated framer goroutine drains the queue and
//	    frames whole groups of MTRs through Client.FrameMTRs: one
//	    LSN-allocation/ordering critical section amortized over every
//	    committer that arrived while the previous group was in flight.
//	    LAL back-pressure now stalls only this goroutine (the queue bound
//	    propagates it to reserve), never a latch holder — so readers keep
//	    running while storage catches up.
//	Stage 3 — completion. A per-group watcher ships the merged batches and
//	    subscribes to the VDL via DurableChan keyed by the group's highest
//	    CPL; each committer just waits on its request's channel. Feed
//	    events for the whole group are published once.
type commitPipeline struct {
	db *DB

	mu       sync.Mutex
	cond     *sync.Cond // wakes the framer (work) and reservers (space)
	queue    []*commitReq
	reserved int // slots promised to committers not yet enqueued
	depth    int
	closed   bool

	// groupKnob and inflKnob are the pipeline's batching budgets, owned by
	// the control plane: groupKnob caps commits per framing critical
	// section (Config.MaxCommitGroup is its static default), inflKnob caps
	// framed groups awaiting durability before the framer pauses
	// (Config.MaxInflightGroups; previously a hardcoded constant). The
	// framer re-reads them every iteration — one atomic load each — so the
	// controller's adjustments take effect on the next group without any
	// synchronization with the hot path. Under sustained load pausing at
	// the in-flight bound builds queue between frames so groups actually
	// amortize: a commit's durability needs every earlier LSN durable
	// anyway (the VDL is contiguous), so holding its frame behind
	// in-flight groups does not delay its ack, it only widens the batch.
	groupKnob *control.Knob
	inflKnob  *control.Knob

	// maxGroupRecs caps a group's total record count. An Alloc larger than
	// the LAL window can never be granted (the VDL cannot advance past the
	// group's own unshipped records), so groups stay well inside it; the
	// quarter-window default keeps several groups pipelined inside one LAL.
	maxGroupRecs int

	// inflight counts framed groups whose watcher has not yet completed.
	inflight int

	framerDone chan struct{}
	ships      sync.WaitGroup
}

// commitReq is one transaction's passage through the pipeline: the MTR to
// frame, the recorder whose pages need LSN stamps, the write store whose
// pins are released once stamped, and the channel the committer waits on.
type commitReq struct {
	txn  uint64
	mtr  *core.MTR
	rec  stamper
	ws   *writeStore
	errc chan error // buffered(1): framing/ship error, or nil once durable

	// Tracing (nil unless this commit won the sampling lottery). sp is the
	// commit root; queueSp covers enqueue→dequeue; groupSp is either the
	// detailed group spans' parent (the group's adopted trace) or a single
	// group.inflight span for sampled commits riding another group member's
	// detailed trace.
	sp      *trace.Span
	queueSp *trace.Span
	groupSp *trace.Span
}

// stamper is the slice of btree.Recorder the pipeline needs (page LSN
// stamping after framing).
type stamper interface {
	StampLSNs(lastFor func(core.PageID) core.LSN)
}

func newCommitPipeline(db *DB) *commitPipeline {
	budget := int(db.vol.LAL() / 4)
	if budget < 1 {
		budget = 1
	}
	p := &commitPipeline{
		db:           db,
		depth:        db.cfg.CommitQueueDepth,
		maxGroupRecs: budget,
		framerDone:   make(chan struct{}),
	}
	// The batching budgets register in the volume client's knob panel so
	// one controller (and one Stats snapshot) owns every latency knob. The
	// knob bounds widen to admit an out-of-range configured value — an
	// ablation sweeping MaxCommitGroup=1 must get exactly 1, not a clamp.
	p.groupKnob = registerKnob(db.vol.Knobs(), control.KnobCommitGroup,
		int64(db.cfg.MaxCommitGroup), control.MinCommitGroup, control.MaxCommitGroup)
	p.inflKnob = registerKnob(db.vol.Knobs(), control.KnobInflightGroups,
		int64(db.cfg.MaxInflightGroups), control.MinInflightGroups, control.MaxInflightGroups)
	p.cond = sync.NewCond(&p.mu)
	go p.framerLoop()
	return p
}

// registerKnob registers a knob whose bounds are widened to include the
// configured default, then resets it to that default — an engine reopened
// on a client whose panel already holds the knob must start from its own
// config, not the previous engine's steered value.
func registerKnob(panel *control.Panel, name string, def, min, max int64) *control.Knob {
	if def < min {
		min = def
	}
	if def > max {
		max = def
	}
	k := panel.Register(name, def, min, max)
	k.Set(def)
	return k
}

// groupMax returns the current commits-per-group budget.
func (p *commitPipeline) groupMax() int { return int(p.groupKnob.Load()) }

// maxInflight returns the current framed-groups-in-flight budget.
func (p *commitPipeline) maxInflight() int { return int(p.inflKnob.Load()) }

// reserve blocks until the pipeline has room for one more commit (the
// back-pressure point: when the framer is stalled on the LAL the queue
// fills and new committers wait HERE, holding no latch). It returns
// ErrClosed once the pipeline shuts down, and a deadline error when ctx
// fires first — nothing has been applied yet, so this is a clean abort.
func (p *commitPipeline) reserve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && ctx.Err() == nil && len(p.queue)+p.reserved >= p.depth {
		p.cond.Wait()
	}
	if p.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	p.reserved++
	return nil
}

// unreserve returns a reservation unused (the commit failed during apply).
func (p *commitPipeline) unreserve() {
	p.mu.Lock()
	p.reserved--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// enqueue converts a reservation into a queued request. It is called with
// the engine latch held, which is what guarantees framing order equals
// apply order; the critical section here is a pointer append.
func (p *commitPipeline) enqueue(req *commitReq) {
	p.mu.Lock()
	p.reserved--
	p.queue = append(p.queue, req)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// stop shuts the pipeline down. Queued and reserved committers are
// released with an error by the framer draining the queue against the
// (now closed) volume client. stop does not wait; callers that need
// quiescence call wait after closing the volume client so nothing can
// block on the LAL.
func (p *commitPipeline) stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// wait blocks until the framer has drained and every in-flight group
// watcher has finished. Call only after stop plus volume close/crash.
func (p *commitPipeline) wait() {
	<-p.framerDone
	p.ships.Wait()
}

// framerLoop is stage 2: it drains the queue in arrival order, frames each
// drained group through one FrameMTRs call, stamps page LSNs, publishes
// the group's feed event, and hands the group to a completion watcher.
func (p *commitPipeline) framerLoop() {
	defer close(p.framerDone)
	for {
		p.mu.Lock()
		// Wait for work; once the in-flight bound is hit, also wait for a
		// group to complete (except at shutdown, where the queue must drain
		// unconditionally so every committer is released).
		for !p.closed && (len(p.queue) == 0 || p.inflight >= p.maxInflight()) {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		// Take the longest queue prefix within both the group-size cap and
		// the record budget; always take at least one commit (a single MTR
		// above the budget still frames alone — only the full LAL window
		// is a hard wall).
		n, recs := 0, 0
		maxGroup := p.groupMax()
		for n < len(p.queue) && n < maxGroup {
			r := len(p.queue[n].mtr.Records)
			if n > 0 && recs+r > p.maxGroupRecs {
				break
			}
			n++
			recs += r
		}
		// The group slice escapes to the completion watcher, so it is copied
		// out; the queue itself compacts in place (no per-group reallocation),
		// with vacated tail slots cleared so completed requests are not pinned.
		group := append(make([]*commitReq, 0, n), p.queue[:n]...)
		m := copy(p.queue, p.queue[n:])
		for i := m; i < len(p.queue); i++ {
			p.queue[i] = nil
		}
		p.queue = p.queue[:m]
		p.cond.Broadcast() // queue space freed: wake reservers
		p.mu.Unlock()

		p.frameGroup(group)
	}
}

// frameGroup frames one group of commits and launches its completion
// watcher. On a framing error (only possible when the volume client is
// closing) the group's committers are failed and writes are suspended —
// the applied-but-unframed tree state must not be shipped piecemeal later.
func (p *commitPipeline) frameGroup(group []*commitReq) {
	db := p.db
	ms := make([]*core.MTR, len(group))
	for i, req := range group {
		ms[i] = req.mtr
	}
	// The group adopts the first sampled member's trace: its spans carry
	// the per-stage breakdown (framing, stamping, ship, VDL wait) for the
	// whole group. Other sampled members get one group.inflight span, so
	// their critical path still decomposes their full latency without
	// duplicating every flight span on each trace.
	var gsp *trace.Span
	for _, req := range group {
		req.queueSp.End()
		if req.sp == nil {
			continue
		}
		if gsp == nil {
			gsp = req.sp
			req.groupSp = gsp
		} else {
			inflight := req.sp.Child("group.inflight")
			trace.Annotate(inflight, "adopted_by", gsp.TraceID())
			req.groupSp = inflight
		}
	}
	fsp := gsp.Child("group.frame")
	trace.Annotate(fsp, "mtrs", len(group))
	gw, err := db.vol.FrameMTRs(db.rootCtx, ms)
	if err != nil {
		fsp.End()
		db.degraded.Store(true)
		for _, req := range group {
			req.ws.done()
			req.errc <- err
		}
		return
	}
	fsp.End()
	// Stamp cached page LSNs while the pages are still pinned (the pins
	// keep the eviction scan away from the header bytes being written),
	// then release the pins: from here the VDL rule governs eviction.
	ssp := gsp.Child("group.stamp")
	for _, req := range group {
		req.rec.StampLSNs(req.mtr.LastLSNFor)
	}
	// Record clones for the feed are built only when someone is listening:
	// with no subscribers the clones would be dropped by the pump anyway,
	// and the steady-state commit path stays allocation-free.
	var recs []core.Record
	if db.feed.active() {
		for _, req := range group {
			recs = append(recs, cloneRecords(req.mtr.Records)...)
		}
	}
	for _, req := range group {
		req.ws.done()
	}
	// One feed event for the framed group: records in LSN order, VDL as of
	// publication. The durability advancement event follows once, from the
	// watcher — not once per commit.
	db.feed.publish(Event{Records: recs, VDL: db.vol.VDL()})
	db.groupSizes.Observe(int64(len(group)))
	ssp.End()

	p.mu.Lock()
	p.inflight++
	p.mu.Unlock()
	p.ships.Add(1)
	go p.completeGroup(group, gw, gsp)
}

// completeGroup is stage 3: ship the group's batches, wait for the VDL to
// pass the group's highest CPL, publish the durability event, and release
// every committer. A write-quorum failure suspends writes and fails the
// whole group — identical semantics to the unpipelined path.
func (p *commitPipeline) completeGroup(group []*commitReq, gw *volume.GroupWrite, gsp *trace.Span) {
	defer p.ships.Done()
	defer func() {
		p.mu.Lock()
		p.inflight--
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	db := p.db
	// Group shipping runs under the instance root, never a commit deadline:
	// a detached committer must not stop the group from becoming durable.
	shipSp := gsp.Child("group.ship")
	if err := gw.Ship(trace.NewContext(db.rootCtx, shipSp)); err != nil {
		trace.Annotate(shipSp, "err", err)
		shipSp.End()
		gw.Release()
		db.degraded.Store(true)
		for _, req := range group {
			endGroupSpan(req, gsp)
			req.errc <- err
		}
		return
	}
	shipSp.End()
	// DurableChan returns a closed channel if the tracker shut down (writer
	// crash); committers then complete exactly as WaitDurable used to.
	vsp := gsp.Child("vdl.wait")
	<-db.vol.DurableChan(gw.MaxCPL())
	vsp.End()
	// The pipeline is done with the group's wire arena: any sender still
	// retrying holds its own reference, so releasing here recycles the
	// arena at the earliest safe point.
	gw.Release()
	db.feed.publish(Event{VDL: db.vol.VDL()})
	for _, req := range group {
		endGroupSpan(req, gsp)
		req.errc <- nil
	}
}

// endGroupSpan closes a non-adopter member's group.inflight span (the
// adopter's groupSp is its own root, ended by the committer itself).
func endGroupSpan(req *commitReq, gsp *trace.Span) {
	if req.groupSp != nil && req.groupSp != gsp {
		req.groupSp.End()
	}
}
