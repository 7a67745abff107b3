package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"aurora/internal/btree"
	"aurora/internal/core"
	"aurora/internal/trace"
	"aurora/internal/volume"
)

// The commit pipeline's budgets. Each has one value outside tests, which set
// a pipeline's fields directly to get a shallow queue or single-commit groups.
const (
	// commitQueueDepth bounds the apply→framing queue. When the framer stalls
	// on LAL back-pressure the queue fills and new committers block before
	// taking the engine latch — so back-pressure throttles writers without
	// ever blocking readers.
	commitQueueDepth = 256
	// maxCommitGroup caps how many queued commits one framing critical
	// section absorbs.
	maxCommitGroup = 64
	// maxInflightGroups bounds how many framed groups may be awaiting
	// durability at once before the framer pauses.
	maxInflightGroups = 4
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
//	Stage 3 — completion. The framer hands the group's merged batches to the
//	    sender pipelines (GroupWrite.ShipAsync) and moves on; nobody watches
//	    the group. The volume settles it exactly once — durable (the window
//	    retired it: VDL >= its highest CPL), failed (it, or a group ahead of
//	    it, can never reach its quorum) or abandoned (the writer crashed or
//	    closed first) — and the goroutine that settles it, usually the sender
//	    loop whose ack completed the quorum, runs complete right there: one
//	    VDL raise on each replica's stream, one send per waiting committer.
type commitPipeline struct {
	db *DB

	mu       sync.Mutex
	cond     *sync.Cond // wakes the framer (work) and reservers (space)
	queue    []*commitReq
	reserved int // slots promised to committers not yet enqueued
	depth    int
	closed   bool

	// maxGroup and maxInflight are the pipeline's batching budgets:
	// maxGroup caps commits per framing critical section (maxCommitGroup),
	// maxInflight caps framed groups awaiting durability before the framer
	// pauses (maxInflightGroups). Like depth they are read under mu. Under
	// sustained load pausing at the in-flight bound builds queue between
	// frames so groups actually amortize: a commit's durability needs every
	// earlier LSN durable anyway (the VDL is contiguous), so holding its
	// frame behind in-flight groups does not delay its ack, it only widens
	// the batch.
	maxGroup    int
	maxInflight int

	// maxGroupRecs caps a group's total record count. An Alloc larger than
	// the LAL window can never be granted (the VDL cannot advance past the
	// group's own unshipped records), so groups stay well inside it; the
	// quarter-window default keeps several groups pipelined inside one LAL.
	maxGroupRecs int

	// inflight counts groups taken off the queue and not yet completed.
	inflight int

	// mtrs is the framer's scratch for the group's MTRs (framer goroutine
	// only; FrameMTRs does not keep the slice).
	mtrs []*core.MTR

	framerDone chan struct{}
}

// commitReq is one transaction's passage through the pipeline, and with its
// channel the one object a commit allocates besides its redo: the write store
// whose pins hold the pages it changed until they are stamped, the recorder
// of their before-images, the MTR of its redo, and the outcome the committer
// waits for. (A channel of struct{} is one object; a chan error is two, its
// buffer holding pointers.)
type commitReq struct {
	ws   writeStore
	rec  btree.Recorder
	mtr  core.MTR
	done chan struct{} // closed once err holds the group's outcome
	err  error         // nil once durable; read only after done is closed
	next *commitReq    // the next commit of its group, chained by the framer

	// detached is set by a committer whose deadline fired before the outcome:
	// nobody will wait on done, so the completion ends the root span itself.
	detached atomic.Bool

	// Tracing (nil unless this commit won the sampling lottery). sp is the
	// commit root; queueSp covers enqueue→dequeue; groupSp is either the
	// detailed group spans' parent (the group's adopted trace) or a single
	// group.inflight span for sampled commits riding another group member's
	// detailed trace.
	sp      *trace.Span
	queueSp *trace.Span
	groupSp *trace.Span
}

// newCommitReq returns the commit of transaction txn, its MTR empty and its
// write store pinning nothing.
func (db *DB) newCommitReq(txn uint64) *commitReq {
	return &commitReq{ws: writeStore{Pins: db.cache.NewPins(), db: db}, mtr: core.MTR{Txn: txn}, done: make(chan struct{})}
}

func newCommitPipeline(db *DB) *commitPipeline {
	budget := int(db.vol.LAL() / 4)
	if budget < 1 {
		budget = 1
	}
	p := &commitPipeline{
		db:           db,
		depth:        commitQueueDepth,
		maxGroupRecs: budget,
		maxGroup:     maxCommitGroup,
		maxInflight:  maxInflightGroups,
		framerDone:   make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.framerLoop()
	return p
}

// reserve blocks until the pipeline has room for one more commit (the
// back-pressure point: when the framer is stalled on the LAL the queue
// fills and new committers wait HERE, holding no latch). It returns
// ErrClosed once the pipeline shuts down, and a deadline error when ctx
// fires first — nothing has been applied yet, so this is a clean abort.
func (p *commitPipeline) reserve(ctx context.Context) error {
	if ctx.Done() != nil { // a context that can never fire needs no watch
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}
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
// (now closed) volume client; it stays until the last reservation has been
// enqueued or returned. stop does not wait; callers that need
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

// wait blocks until the framer has drained and every group it took has been
// completed. Call only after stop plus volume close/crash, which settle what
// was in flight: this waits out completions already running, never a quorum.
func (p *commitPipeline) wait() {
	<-p.framerDone
	p.mu.Lock()
	for p.inflight > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// framerLoop is stage 2: it drains the queue in arrival order, frames each
// drained group through one FrameMTRs call, stamps page LSNs, appends the
// group's records to the replicas' streams, and ships the group.
func (p *commitPipeline) framerLoop() {
	defer close(p.framerDone)
	for {
		p.mu.Lock()
		// Wait for work; once the in-flight bound is hit, also wait for a
		// group to complete (except at shutdown, where the queue must drain
		// unconditionally so every committer is released — including the ones
		// that hold a reservation from before the stop and have yet to enqueue).
		for len(p.queue) == 0 || !p.closed && p.inflight >= p.maxInflight {
			if p.closed && len(p.queue) == 0 && p.reserved == 0 {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		// Take the longest queue prefix within both the group-size cap and
		// the record budget; always take at least one commit (a single MTR
		// above the budget still frames alone — only the full LAL window
		// is a hard wall).
		n, recs := 0, 0
		for n < len(p.queue) && n < p.maxGroup {
			r := len(p.queue[n].mtr.Records)
			if n > 0 && recs+r > p.maxGroupRecs {
				break
			}
			n++
			recs += r
		}
		// The group escapes to the completion as the chain of its requests
		// (commitReq.next), so taking it allocates nothing; the queue compacts
		// in place, with vacated tail slots cleared so completed requests are
		// not pinned.
		group := p.queue[0]
		for i := 1; i < n; i++ {
			p.queue[i-1].next = p.queue[i]
		}
		m := copy(p.queue, p.queue[n:])
		clear(p.queue[m:])
		p.queue = p.queue[:m]
		p.inflight++
		p.cond.Broadcast() // queue space freed: wake reservers
		p.mu.Unlock()

		p.frameGroup(group, n)
	}
}

// frameGroup frames one group of n commits, chained from group, and ships
// it. On a framing error (only possible when the volume client is closing)
// the group completes as failed on the spot — the applied-but-unframed tree
// state must not be shipped piecemeal later.
func (p *commitPipeline) frameGroup(group *commitReq, n int) {
	db := p.db
	ms := p.mtrs[:0]
	for req := group; req != nil; req = req.next {
		ms = append(ms, &req.mtr)
	}
	// The group adopts the first sampled member's trace: its spans carry
	// the per-stage breakdown (framing, stamping, ship, VDL wait) for the
	// whole group. Other sampled members get one group.inflight span, so
	// their critical path still decomposes their full latency without
	// duplicating every flight span on each trace.
	var gsp *trace.Span
	for req := group; req != nil; req = req.next {
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
	trace.Annotate(fsp, "mtrs", n)
	gw, err := db.vol.FrameMTRs(db.rootCtx, ms)
	fsp.End()
	if err != nil {
		p.dropMTRs(ms)
		for req := group; req != nil; req = req.next {
			req.ws.Release()
		}
		p.complete(group, nil, gsp, nil, err)
		return
	}
	// Stamp cached page LSNs while the pages are still pinned (the pins
	// keep the eviction scan away from the header bytes being written),
	// then release the pins: from here the VDL rule governs eviction.
	ssp := gsp.Child("group.stamp")
	for req := group; req != nil; req = req.next {
		req.rec.StampLSNs(req.mtr.LastLSNFor)
	}
	// The group's records go to every replica's stream, in LSN order, before
	// the group ships; its completion publishes the VDL that covers them.
	db.streams.append(ms)
	p.dropMTRs(ms)
	for req := group; req != nil; req = req.next {
		req.ws.Release()
	}
	db.groupSizes.Observe(int64(n))
	ssp.End()

	// The group ships under the instance root, never a commit deadline: a
	// detached committer must not stop the group from becoming durable.
	shipSp := gsp.Child("group.ship")
	gw.ShipAsync(shipSp, func(err error) { p.complete(group, gw, gsp, shipSp, err) })
}

// dropMTRs empties the framer's MTR scratch, which must not keep a group's
// commits alive.
func (p *commitPipeline) dropMTRs(ms []*core.MTR) {
	clear(ms)
	p.mtrs = ms[:0]
}

// complete is stage 3, the one place a commit's outcome is delivered: once
// per group taken off the queue, on the goroutine that settled it, with err
// nil if and only if the durability window retired the group. Any other
// outcome suspends writes and fails every member alike.
func (p *commitPipeline) complete(group *commitReq, gw *volume.GroupWrite, gsp, shipSp *trace.Span, err error) {
	db := p.db
	if err != nil {
		trace.Annotate(shipSp, "err", err)
		db.degraded.Store(true)
	}
	shipSp.End()
	if gw != nil {
		// The pipeline is done with the group's wire arena: any sender still
		// retrying holds its own reference, so releasing here recycles the
		// arena at the earliest safe point.
		gw.Release()
	}
	if err == nil {
		db.streams.publish(db.vol.VDL())
	}
	for req := group; req != nil; req = req.next {
		if req.groupSp != gsp {
			req.groupSp.End() // a rider's group.inflight; the adopter's is its root
		}
		req.err = err
		close(req.done)
		if req.detached.Load() {
			req.sp.End()
		}
	}
	p.mu.Lock()
	p.inflight--
	p.cond.Broadcast()
	p.mu.Unlock()
}
