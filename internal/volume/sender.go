package volume

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/storage"
	"aurora/internal/trace"
)

// sendHop wraps one network send in a named child span of parent ("net.req",
// "net.ack", "net.resp"...), annotated with the endpoints and payload size.
// With a nil parent — the unsampled common case — only the send happens.
func sendHop(ctx context.Context, net *netsim.Network, parent *trace.Span, name string, from, to netsim.NodeID, size int) error {
	sp := parent.Child(name)
	trace.Annotate(sp, "from", from)
	trace.Annotate(sp, "to", to)
	trace.Annotate(sp, "bytes", size)
	err := net.Send(ctx, from, to, size)
	if err != nil {
		trace.Annotate(sp, "err", err)
	}
	sp.End()
	return err
}

// sendHopBytes is sendHop for a payload-carrying send: the views are
// borrowed by the network only for the duration of the call (see
// netsim.SendBytes), so the caller's arena can be recycled as soon as the
// delivery resolves.
func sendHopBytes(ctx context.Context, net *netsim.Network, parent *trace.Span, name string, from, to netsim.NodeID, payloads [][]byte) error {
	sp := parent.Child(name)
	trace.Annotate(sp, "from", from)
	trace.Annotate(sp, "to", to)
	size, err := net.SendBytes(ctx, from, to, payloads)
	trace.Annotate(sp, "bytes", size)
	if err != nil {
		trace.Annotate(sp, "err", err)
	}
	sp.End()
	return err
}

// shipment is one encoded batch awaiting delivery to one segment replica:
// batch bi of the framed group gw. wire is a view into the group's arena;
// the shipment's holder keeps one reference on the arena for as long as it
// may touch wire, released exactly once when the shipment is acked, nacked,
// or dropped.
type shipment struct {
	wire []byte
	gw   *GroupWrite
	bi   int
}

func (sh shipment) batch() *groupBatch { return &sh.gw.batches[sh.bi] }

// ack and nack deliver replica idx's verdict on the batch. The verdict that
// resolves the batch's quorum runs the durability bookkeeping right here, on
// the delivering goroutine (GroupWrite.batchResolved).
func (sh shipment) ack(idx int) {
	if sh.batch().tr.Ack(idx) {
		sh.gw.batchResolved(sh.bi)
	}
}

func (sh shipment) nack(idx int) {
	if sh.batch().tr.Nack(idx) {
		sh.gw.batchResolved(sh.bi)
	}
}

// release drops the holder's reference on the group's arena.
func (sh shipment) release() { sh.gw.g.Release() }

// replicaSender is the per-(PG, replica) delivery pipeline. Batches framed
// while a previous flight is on the wire accumulate in the queue and are
// coalesced into a single network message and a single hot-log write on
// the storage node — the batching of §3.2's IO flow. It is this pipeline
// that pushes network IOs per transaction below one at high concurrency
// (Table 1) and lets commit throughput scale with connections (Table 3).
//
// The queue is a ring buffer and the flight state (shipments, payload and
// view slices, per-batch results) is reusable scratch owned by the loop
// goroutine, so steady-state delivery allocates nothing.
type replicaSender struct {
	c    *Client
	pg   core.PGID
	idx  int
	node *storage.Node

	mu         sync.Mutex
	cond       *sync.Cond
	q          []shipment // ring buffer
	qhead      int
	qlen       int
	flying     bool // a flight is out: popped from the queue, not yet settled
	stopped    bool // terminal: loop exited, enqueue nacks
	draining   bool // graceful: loop delivers the queue, then stops
	noCoalesce bool

	// Loop-owned scratch, reused across flights.
	flight   []shipment
	payloads [][]byte
	views    []core.BatchView
	results  []storage.BatchResult
}

func newReplicaSender(c *Client, pg core.PGID, idx int, node *storage.Node, noCoalesce bool) *replicaSender {
	s := &replicaSender{c: c, pg: pg, idx: idx, node: node, noCoalesce: noCoalesce}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// pushLocked appends to the ring, growing it by doubling when full (the
// steady state never grows: the ring keeps its high-water capacity).
func (s *replicaSender) pushLocked(sh shipment) {
	if s.qlen == len(s.q) {
		n := len(s.q) * 2
		if n == 0 {
			n = 16
		}
		nq := make([]shipment, n)
		for i := 0; i < s.qlen; i++ {
			nq[i] = s.q[(s.qhead+i)%len(s.q)]
		}
		s.q = nq
		s.qhead = 0
	}
	s.q[(s.qhead+s.qlen)%len(s.q)] = sh
	s.qlen++
}

// popLocked removes the oldest shipment, zeroing its slot so the ring does
// not pin the group's arena.
func (s *replicaSender) popLocked() shipment {
	sh := s.q[s.qhead]
	s.q[s.qhead] = shipment{}
	s.qhead = (s.qhead + 1) % len(s.q)
	s.qlen--
	return sh
}

// enqueue adds a shipment to the pipeline. The caller has already retained
// the shipment's group on this sender's behalf; every exit path out of the
// pipeline releases it exactly once.
func (s *replicaSender) enqueue(sh shipment) {
	s.mu.Lock()
	if s.stopped || s.draining {
		s.mu.Unlock()
		sh.nack(s.idx)
		sh.release()
		return
	}
	s.pushLocked(sh)
	s.cond.Broadcast() // the loop, and possibly fence drains in waitIdle
	s.mu.Unlock()
}

// stop tears the pipeline down abruptly: queued shipments are nacked and
// their group references dropped.
func (s *replicaSender) stop() {
	s.mu.Lock()
	s.stopped = true
	var pending []shipment
	for s.qlen > 0 {
		pending = append(pending, s.popLocked())
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, sh := range pending {
		sh.nack(s.idx)
		sh.release()
	}
}

// drain stops the pipeline gracefully: queued shipments are delivered (the
// write path's retry budget still applies), then the loop exits. It blocks
// until the pipeline has fully stopped.
func (s *replicaSender) drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	for !s.stopped {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// waitIdle blocks until the pipeline holds nothing queued and nothing in
// flight, or has stopped (a Crash stops every pipeline, so this never
// outlives the client).
func (s *replicaSender) waitIdle() {
	s.mu.Lock()
	for (s.qlen > 0 || s.flying) && !s.stopped {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *replicaSender) loop() {
	for {
		s.mu.Lock()
		s.flying = false
		if s.qlen == 0 {
			s.cond.Broadcast() // idle: release waitIdle
		}
		for s.qlen == 0 && !s.stopped && !s.draining {
			s.cond.Wait()
		}
		if s.stopped || s.qlen == 0 {
			// Abrupt stop, or graceful drain with nothing left to deliver.
			s.stopped = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.flight = s.flight[:0]
		if s.noCoalesce {
			s.flight = append(s.flight, s.popLocked())
		} else {
			for s.qlen > 0 {
				s.flight = append(s.flight, s.popLocked())
			}
		}
		s.flying = true
		s.mu.Unlock()

		s.deliver(s.flight)
		s.clearScratch()
	}
}

// clearScratch zeroes the flight scratch after a delivery so the retained
// capacity does not pin any group's arena between flights.
func (s *replicaSender) clearScratch() {
	for i := range s.flight {
		s.flight[i] = shipment{}
	}
	for i := range s.payloads {
		s.payloads[i] = nil
	}
	for i := range s.views {
		s.views[i] = core.BatchView{}
	}
	for i := range s.results {
		s.results[i] = storage.BatchResult{}
	}
}

// releaseFlight drops the pipeline's group references for a flight that has
// fully resolved (acked, nacked, or dropped as already-settled).
func releaseFlight(flight []shipment) {
	for _, sh := range flight {
		sh.release()
	}
}

// deliver ships one coalesced flight: one send, one Ingest, one ack. A
// failed flight is redelivered with capped exponential backoff plus jitter
// — the gray case of a single dropped message must not nack a live replica
// — and the replica is nacked only once the retry budget is exhausted. A
// batch the node rejects for a NON-transient reason (wrong volume, stale
// geometry, corrupt bytes) is nacked immediately on an otherwise successful
// flight: redelivery cannot fix it. If every batch in the flight resolves
// its quorum while we back off, the redelivery is dropped: the 4/6 quorum
// absorbed the failure and gossip repairs this replica later (§3.3).
// Storage ingestion is idempotent, so a redelivery racing a flight that did
// land is harmless.
func (s *replicaSender) deliver(flight []shipment) {
	c := s.c
	// Delivery runs under the client's root context: a Crash abandons the
	// in-flight exchange and its backoff immediately. Per-commit deadlines
	// deliberately do NOT reach here — a committer detaching must not stop
	// its batch from shipping (durability is decided by the quorum, not the
	// waiter).
	ctx := c.rootCtx
	size := 0
	for i := range flight {
		size += len(flight[i].wire)
	}
	for try := 0; ; try++ {
		// One replica.flight span per traced shipment per attempt. The
		// first becomes the lead: the single physical exchange's net and
		// storage children hang off it; coalesced followers share the
		// flight's wall time but point at the lead for the breakdown.
		var lead *trace.Span
		var flightSpans []*trace.Span
		for _, sh := range flight {
			fsp := sh.batch().sp.Child("replica.flight")
			if fsp == nil {
				continue
			}
			trace.Annotate(fsp, "replica", s.idx)
			trace.Annotate(fsp, "node", s.node.NodeID())
			trace.Annotate(fsp, "batches", len(flight))
			if try > 0 {
				trace.Annotate(fsp, "try", try+1)
			}
			if lead == nil {
				lead = fsp
			} else {
				trace.Annotate(fsp, "coalesced", true)
			}
			flightSpans = append(flightSpans, fsp)
		}
		start := time.Now()
		ack, results, err := s.attempt(ctx, flight, lead)
		for _, fsp := range flightSpans {
			if err != nil {
				trace.Annotate(fsp, "err", err)
			}
			fsp.End()
		}
		if err == nil {
			rtt := time.Since(start)
			c.fleet.health.ObserveOK(s.pg, s.idx, rtt)
			c.deliverWin.ObserveDuration(rtt)
			c.logBytes.Add(uint64(size))
			// A late ack from a retried flight may arrive after the quorum
			// already resolved; noteSCL is a monotonic max and an ack on a
			// resolved tracker resolves nothing again, so stale acks still
			// advance the segment's completeness view safely.
			c.fleet.health.noteSCL(s.pg, s.idx, ack.SCL)
			for i, sh := range flight {
				if results[i].Err != nil {
					sh.nack(s.idx)
				} else {
					sh.ack(s.idx)
				}
			}
			releaseFlight(flight)
			return
		}
		if ctx.Err() != nil {
			break // client torn down mid-flight; nack, don't blame health
		}
		c.fleet.health.ObserveFailure(s.pg, s.idx)
		if try+1 >= deliverAttempts {
			break
		}
		if s.resolvedAll(flight) {
			releaseFlight(flight)
			return // settled without us; gossip will catch this replica up
		}
		// Backoff selects on the root context so a crashing client never
		// waits out a retry schedule. The ceiling is a control-plane knob.
		bt := time.NewTimer(backoffFor(try, c.backoffCap()))
		select {
		case <-bt.C:
		case <-ctx.Done():
			bt.Stop()
		}
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped || ctx.Err() != nil {
			break
		}
		c.fleet.health.retries.Inc()
	}
	for _, sh := range flight {
		sh.nack(s.idx)
	}
	releaseFlight(flight)
}

// attempt performs one delivery exchange: request send carrying the flight's
// borrowed wire views, persist+ack on the storage node, ack send back. sp
// (the lead flight span, nil when the flight carries no sampled commit)
// parents the hop and ingest spans. The returned results slice is the
// sender's scratch, valid until the next attempt.
func (s *replicaSender) attempt(ctx context.Context, flight []shipment, sp *trace.Span) (storage.Ack, []storage.BatchResult, error) {
	c := s.c
	s.payloads = s.payloads[:0]
	s.views = s.views[:0]
	for i := range flight {
		s.payloads = append(s.payloads, flight[i].wire)
		v, _, err := core.ParseBatchView(flight[i].wire)
		if err != nil {
			// Cannot happen for framer-produced wire; fail the flight rather
			// than ship garbage.
			return storage.Ack{}, nil, fmt.Errorf("volume: bad shipment wire: %w", err)
		}
		s.views = append(s.views, v)
	}
	if err := sendHopBytes(ctx, c.fleet.cfg.Net, sp, "net.req", c.node, s.node.NodeID(), s.payloads); err != nil {
		return storage.Ack{}, nil, err
	}
	vdlNow := c.vdl.VDL()
	mrpl := c.mrpl(vdlNow)
	ack, results, err := s.node.Ingest(trace.NewContext(ctx, sp), s.views, vdlNow, mrpl, s.results[:0])
	s.results = results
	if err != nil {
		return storage.Ack{}, nil, err
	}
	if err := sendHop(ctx, c.fleet.cfg.Net, sp, "net.ack", s.node.NodeID(), c.node, ackSize); err != nil {
		return storage.Ack{}, nil, err
	}
	return ack, results, nil
}

// resolvedAll reports whether every batch in the flight has already
// resolved its write quorum (success or failure) without this replica.
func (s *replicaSender) resolvedAll(flight []shipment) bool {
	for _, sh := range flight {
		if !sh.batch().tr.Resolved() {
			return false
		}
	}
	return true
}
