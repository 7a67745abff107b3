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

// SenderWindow bounds the flights one (PG, replica) pipeline keeps in the air
// at once. It is a capacity bound like the queue ring's size: a batch must
// never wait out another commit's round trip, and on a network that takes
// time the commit pipeline admits engine.Config.MaxInflightGroups (4) groups,
// so that many flights per replica is all the overlap there is to have. Where
// a delivery never blocks, a second worker is never started. EXPERIMENTS.md
// has the {2, 4, 8} sweep.
const SenderWindow = 4

// replicaSender is the per-(PG, replica) delivery pipeline: a bounded window
// of flights. A worker pops everything queued as one flight — one network
// message, one hot-log write on the storage node — and is gone for the round
// trip; a batch enqueued meanwhile goes to a worker that is home or, with all
// of them out and the window not full, to a new one, so it never waits for a
// flight that is not its own. Only when the whole window is in the air do
// batches accumulate and coalesce: the batching of §3.2's IO flow, which
// pushes network IOs per transaction below one at high concurrency (Table 1)
// and lets commit throughput scale with connections (Table 3).
//
// Flights of one pipeline overlap, so a later one may land first. The storage
// node's gap tracker holds its SCL at the hole, the points an ack carries only
// ever move forward, ingest is idempotent, and a quorum vouches for its own
// batch alone (durableWindow) — redelivery and gossip have always reordered.
//
// The queue is a ring buffer and every worker owns its flight scratch, so
// steady-state delivery allocates nothing.
type replicaSender struct {
	c    *Client
	pg   core.PGID
	idx  int
	node *storage.Node

	mu       sync.Mutex
	cond     *sync.Cond
	q        []shipment // ring buffer
	qhead    int
	qlen     int
	workers  int  // started and not yet exited; at most SenderWindow
	flying   int  // of those, out with a flight: popped from the queue, not yet settled
	stopped  bool // terminal: workers exit, enqueue nacks
	draining bool // graceful: workers deliver the queue, then stop

	// What Stats reports of the queue, summed over the client's senders.
	shipments uint64 // enqueued
	waited    uint64 // of those, enqueued with the whole window out
	flights   uint64 // exchanges with the replica, redeliveries included

	noCoalesce bool
}

// flightScratch is one worker's reusable flight state: the shipments it popped,
// the payload and view slices of the exchange and the node's per-batch results.
type flightScratch struct {
	flight   []shipment
	payloads [][]byte
	views    []core.BatchView
	results  []storage.BatchResult
	inAir    int // flights of this pipeline already out when this one was popped
}

func newReplicaSender(c *Client, pg core.PGID, idx int, node *storage.Node, noCoalesce bool) *replicaSender {
	s := &replicaSender{c: c, pg: pg, idx: idx, node: node, workers: 1, noCoalesce: noCoalesce}
	s.cond = sync.NewCond(&s.mu)
	go s.work()
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
// pipeline releases it exactly once. A worker that is not out with a flight
// takes it; with every one out another is started while the window has room,
// and only a full window makes it wait for a flight to come home.
func (s *replicaSender) enqueue(sh shipment) {
	s.mu.Lock()
	if s.stopped || s.draining {
		s.mu.Unlock()
		sh.nack(s.idx)
		sh.release()
		return
	}
	s.pushLocked(sh)
	s.shipments++
	switch {
	case s.flying < s.workers:
		s.cond.Broadcast() // a worker is parked, or on its way back to the queue
	case s.workers < SenderWindow:
		s.workers++
		go s.work()
	default:
		s.waited++
	}
	s.mu.Unlock()
}

// stop tears the pipeline down abruptly: queued shipments are nacked and
// their group references dropped. Workers exit as their flights notice — the
// root context is canceled before a pipeline is stopped.
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
// write path's retry budget still applies), then the workers exit. It blocks
// until the last of them has.
func (s *replicaSender) drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	for s.workers > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// waitIdle blocks until the pipeline holds nothing queued and nothing in
// flight, or has stopped (a Crash stops every pipeline, so this never
// outlives the client).
func (s *replicaSender) waitIdle() {
	s.mu.Lock()
	for (s.qlen > 0 || s.flying > 0) && !s.stopped {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// work is the body of every worker of the pipeline: park until something is
// queued, pop all of it as one flight, deliver, repeat.
func (s *replicaSender) work() {
	var sc flightScratch
	s.mu.Lock()
	for {
		for s.qlen == 0 && !s.stopped && !s.draining {
			s.cond.Wait()
		}
		if s.stopped || s.qlen == 0 {
			// Abrupt stop, or graceful drain with nothing left to pop. A drain
			// has fully stopped once the last worker's flight has settled.
			s.workers--
			if s.workers == 0 {
				s.stopped = true
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		sc.flight = append(sc.flight, s.popLocked())
		for s.qlen > 0 && !s.noCoalesce {
			sc.flight = append(sc.flight, s.popLocked())
		}
		sc.inAir = s.flying
		s.flying++
		s.flights++
		s.mu.Unlock()

		s.deliver(&sc)
		sc.clear()

		s.mu.Lock()
		s.flying--
		if s.flying == 0 && s.qlen == 0 {
			s.cond.Broadcast() // idle: release waitIdle
		}
	}
}

// clear empties the scratch after a delivery so the retained capacity does
// not pin any group's arena between flights.
func (sc *flightScratch) clear() {
	clear(sc.flight)
	clear(sc.payloads)
	clear(sc.views)
	clear(sc.results)
	sc.flight = sc.flight[:0]
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
// land is harmless. A flight in backoff holds up only itself: the batches
// framed behind it fly with the pipeline's other workers.
func (s *replicaSender) deliver(sc *flightScratch) {
	c := s.c
	flight := sc.flight
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
			} else {
				// How long the batch sat in the queue (its batch.ship span was
				// opened as it was handed to the senders), and behind how
				// many flights of this pipeline it took off.
				trace.Annotate(fsp, "queued_us", sh.batch().sp.Age().Microseconds())
				trace.Annotate(fsp, "in_air", sc.inAir)
			}
			if lead == nil {
				lead = fsp
			} else {
				trace.Annotate(fsp, "coalesced", true)
			}
			flightSpans = append(flightSpans, fsp)
		}
		start := time.Now()
		ack, results, err := s.attempt(ctx, sc, lead)
		for _, fsp := range flightSpans {
			if err != nil {
				trace.Annotate(fsp, "err", err)
			}
			fsp.End()
		}
		if err == nil {
			rtt := time.Since(start)
			c.fleet.health.ObserveOK(s.pg, s.idx, rtt)
			c.logBytes.Add(uint64(size))
			// A late ack — from a retried flight, or from one that a later
			// flight of this pipeline overtook — may arrive after the quorum
			// already resolved or carry an older SCL; noteSCL is a monotonic
			// max and an ack on a resolved tracker resolves nothing again, so
			// stale acks still advance the segment's completeness view safely.
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
		// waits out a retry schedule.
		bt := time.NewTimer(backoffFor(try))
		select {
		case <-bt.C:
		case <-ctx.Done():
			bt.Stop()
		}
		s.mu.Lock()
		again := !s.stopped && ctx.Err() == nil
		if again {
			s.flights++
		}
		s.mu.Unlock()
		if !again {
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
// worker's scratch, valid until its next attempt.
func (s *replicaSender) attempt(ctx context.Context, sc *flightScratch, sp *trace.Span) (storage.Ack, []storage.BatchResult, error) {
	c := s.c
	sc.payloads = sc.payloads[:0]
	sc.views = sc.views[:0]
	for _, sh := range sc.flight {
		sc.payloads = append(sc.payloads, sh.wire)
		v, _, err := core.ParseBatchView(sh.wire)
		if err != nil {
			// Cannot happen for framer-produced wire; fail the flight rather
			// than ship garbage.
			return storage.Ack{}, nil, fmt.Errorf("volume: bad shipment wire: %w", err)
		}
		sc.views = append(sc.views, v)
	}
	if err := sendHopBytes(ctx, c.fleet.cfg.Net, sp, "net.req", c.node, s.node.NodeID(), sc.payloads); err != nil {
		return storage.Ack{}, nil, err
	}
	vdlNow := c.vdl.VDL()
	mrpl := c.mrpl(vdlNow)
	ack, results, err := s.node.Ingest(trace.NewContext(ctx, sp), sc.views, vdlNow, mrpl, sc.results[:0])
	sc.results = results
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
