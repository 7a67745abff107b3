// Package replica implements Aurora read replicas. Up to 15 replicas mount
// the same storage volume as the writer, adding no storage or write IO: the
// writer streams its redo log to each replica, which applies records to
// pages already in its buffer cache and discards the rest (§4.2.4). Two
// rules keep a replica consistent: only records at or below the writer's
// VDL are applied, and the records of one mini-transaction are applied
// atomically. Cache misses are served by the shared storage service at the
// replica's own read point.
package replica

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"aurora/internal/btree"
	"aurora/internal/bufcache"
	"aurora/internal/core"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/page"
	"aurora/internal/trace"
	"aurora/internal/volume"
)

// ErrClosed is returned by reads on a closed replica: one closed by its
// owner, or one whose writer closed or crashed and ended its stream.
var ErrClosed = errors.New("replica: closed")

// Config tunes one read replica.
type Config struct {
	Name       netsim.NodeID
	AZ         netsim.AZ
	CachePages int
	// Tracer, when non-nil, samples replica apply batches and cache-miss
	// reads into the same collector as the writer's commit spans, so
	// replica lag decomposes stage-by-stage the way commits do.
	Tracer *trace.Collector
}

// Stats is a snapshot of replica counters.
type Stats struct {
	Applied   uint64 // records applied to cached pages
	Discarded uint64 // records for uncached pages
	Buffered  int    // records in the replica's stream, not applied yet
	VDL       core.LSN
	Cache     bufcache.Stats
}

// Replica is one read-only instance attached to the writer's log stream
// and the shared storage volume.
type Replica struct {
	name   netsim.NodeID
	reader *volume.Reader
	cache  *bufcache.Cache
	tracer *trace.Collector
	// ctx bounds the replica's own storage reads; Close cancels it so
	// in-flight hedged fetches unwind before the reader detaches.
	ctx       context.Context
	ctxCancel context.CancelFunc
	// pgOfAt routes a page at a read point: across a live stripe cutover
	// the replica's snapshot reads must keep going to the PG that holds the
	// page's history as of that point (volume growth, §3).
	pgOfAt func(core.PageID, core.LSN) core.PGID

	mu sync.RWMutex // excludes reads during atomic MTR application
	// vdl is the applied durable point: the view reads are served at and the
	// buffer cache's eviction fence. It is stored only under mu's exclusive
	// lock, so a reader holding the shared lock sees it fixed.
	vdl   atomic.Uint64 // a core.LSN
	tails map[core.PGID]core.LSN

	stream *engine.Stream // the writer's redo stream to this replica
	taken  []core.Record  // the records advance took, reused across calls; under mu
	done   chan struct{}  // closed when the apply loop has exited
	closed atomic.Bool

	applied   atomic.Uint64
	discarded atomic.Uint64
}

// Attach creates a replica consuming db's log stream and reading cold
// pages from the fleet. The replica lives as long as that stream: when db
// closes or crashes it detaches itself (see detach).
func Attach(db *engine.DB, f *volume.Fleet, cfg Config) *Replica {
	if cfg.CachePages <= 0 {
		cfg.CachePages = 4096
	}
	ctx, ctxCancel := context.WithCancel(context.Background())
	r := &Replica{
		name:      cfg.Name,
		tracer:    cfg.Tracer,
		ctx:       ctx,
		ctxCancel: ctxCancel,
		pgOfAt:    f.PGOfAt,
		tails:     make(map[core.PGID]core.LSN),
		done:      make(chan struct{}),
	}
	// The replica's cache eviction fence is its own applied VDL.
	r.cache = bufcache.New(cfg.CachePages, r.VDL)
	r.stream = db.Subscribe()
	// A group framed before the Subscribe reached the other streams, not
	// this one, yet its completion raises this stream's VDL too: a page
	// read below it would never get its records. So wait until everything
	// allocated so far is durable (a writer crash, close or lost quorum ends it)
	// and seed the view from the writer's durable state after that, so
	// reads issued before the first VDL raise see real data, not an empty
	// volume. Records the view already holds re-apply idempotently. The
	// reader pins that view in the writer's read-point registry, so storage
	// GC keeps every version this replica could still read; the pin
	// advances with the applied VDL in advance.
	vol := db.Volume()
	vol.WaitDurable(vol.HighestAllocated())
	reader, start := volume.NewReader(vol, cfg.Name, cfg.AZ)
	r.reader = reader
	r.vdl.Store(uint64(start))
	for g := 0; g < f.PGs(); g++ {
		if tail := vol.DurableTail(core.PGID(g)); tail > 0 {
			r.tails[core.PGID(g)] = tail
		}
	}
	go r.loop()
	return r
}

// loop applies the stream until it ends: Close ended it, or the writer
// closed or crashed.
func (r *Replica) loop() {
	defer close(r.done)
	for range r.stream.Wake() {
		if !r.advance() {
			r.detach()
			return
		}
	}
}

// advance takes the stream's records at or below its VDL and applies them
// under the exclusive lock, then moves the view to that VDL. The VDL is
// always a CPL, so the records are whole MTRs, and holding the lock for all
// of them makes their application atomic with respect to replica reads.
// Records above the VDL stay in the stream. It reports false once the
// stream has ended.
func (r *Replica) advance() bool {
	sp := r.traceStart("replica.apply")
	defer sp.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	recs, streamVDL, ok := r.stream.Take(r.taken[:0])
	if !ok {
		return false
	}
	trace.Annotate(sp, "records", len(recs))
	trace.Annotate(sp, "stream_vdl", streamVDL)
	for i := range recs {
		r.applyLocked(&recs[i])
	}
	// applyLocked keeps neither a record nor its Data, so the buffer is
	// reused; cleared, it holds no redo alive until the next advance.
	clear(recs)
	r.taken = recs[:0]
	if streamVDL > r.VDL() {
		r.vdl.Store(uint64(streamVDL))
		// No read holds the older view (they hold mu shared): release it.
		r.reader.AdvancePin(streamVDL)
	}
	if sp != nil {
		trace.Annotate(sp, "lag_records", r.stream.Buffered())
	}
	trace.Annotate(sp, "vdl", r.VDL())
	return true
}

// traceStart samples a replica-side root span; nil when no tracer is
// attached or this span loses the sampling lottery.
func (r *Replica) traceStart(name string) *trace.Span {
	if r.tracer == nil {
		return nil
	}
	return r.tracer.Start(name)
}

func (r *Replica) applyLocked(rec *core.Record) {
	if rec.PageRecord() {
		if rec.LSN > r.tails[rec.PG] {
			r.tails[rec.PG] = rec.LSN
		}
	}
	if !rec.PageRecord() {
		return
	}
	p, ok := r.cache.Get(rec.Page)
	if !ok {
		r.discarded.Add(1)
		return
	}
	defer r.cache.Unpin(rec.Page)
	if rec.LSN <= p.LSN() {
		return // already reflected (page fetched fresh from storage)
	}
	if err := p.Apply(rec); err == nil {
		r.applied.Add(1)
	}
}

// VDL returns the replica's applied durable point. It is lock-free so the
// buffer cache can consult it as its eviction fence from any context.
func (r *Replica) VDL() core.LSN { return core.LSN(r.vdl.Load()) }

// replicaStore serves tree pages at the replica's read point: cache first,
// then the shared storage volume, read into a recycled frame. Callers hold
// r.mu.RLock for the whole tree operation, so the apply loop cannot
// interleave, and every page stays pinned until Release (bufcache.Pins): a
// page that lost its pin could be evicted by another reader's miss and its
// frame refilled under this one.
type replicaStore struct {
	bufcache.Pins
	r         *Replica
	ctx       context.Context
	readPoint core.LSN
}

// store returns a store at the replica's current view; the caller holds
// r.mu.RLock and releases the store's pins before unlocking.
func (r *Replica) store(ctx context.Context) *replicaStore {
	return &replicaStore{Pins: r.cache.NewPins(), r: r, ctx: r.joinCtx(ctx), readPoint: r.VDL()}
}

func (s *replicaStore) Page(id core.PageID) (page.Page, error) {
	if p, ok := s.Get(id); ok {
		return p, nil
	}
	sp := s.r.traceStart("replica.read")
	trace.Annotate(sp, "page", id)
	trace.Annotate(sp, "read_point", s.readPoint)
	required := s.r.tails[s.r.pgOfAt(id, s.readPoint)] // under RLock
	p, err := s.Fill(id, func(frame page.Page) error {
		return s.r.reader.ReadPageInto(trace.NewContext(s.ctx, sp), id, s.readPoint, required, frame)
	})
	sp.End()
	return p, err
}

func (s *replicaStore) FreshPage(core.PageID) (page.Page, error) {
	return nil, errors.New("replica: read-only")
}

// Get reads a row at the replica's current view.
func (r *Replica) Get(key []byte) ([]byte, bool, error) {
	return r.GetCtx(context.Background(), key)
}

// GetCtx is Get with cold-page fetches bounded by ctx.
func (r *Replica) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	if r.closed.Load() {
		return nil, false, ErrClosed
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.store(ctx)
	defer s.Release()
	return btree.View(s).Get(key)
}

// Scan visits rows in range at the replica's current view.
func (r *Replica) Scan(from, to []byte, fn func(k, v []byte) bool) error {
	return r.ScanCtx(context.Background(), from, to, fn)
}

// ScanCtx is Scan with cold-page fetches bounded by ctx.
func (r *Replica) ScanCtx(ctx context.Context, from, to []byte, fn func(k, v []byte) bool) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.store(ctx)
	defer s.Release()
	return btree.View(s).Scan(from, to, fn)
}

// joinCtx returns the replica's root ctx unless the caller brought a
// cancelable one — the common Background case costs nothing.
func (r *Replica) joinCtx(ctx context.Context) context.Context {
	if ctx == context.Background() {
		return r.ctx
	}
	return ctx
}

// WarmUp pre-loads the pages holding the given key range into the cache so
// subsequent log records for them are applied rather than discarded.
func (r *Replica) WarmUp(from, to []byte) error {
	return r.Scan(from, to, func(k, v []byte) bool { return true })
}

// Stats returns a snapshot of replica counters.
func (r *Replica) Stats() Stats {
	return Stats{
		Applied:   r.applied.Load(),
		Discarded: r.discarded.Load(),
		Buffered:  r.stream.Buffered(),
		VDL:       r.VDL(),
		Cache:     r.cache.Stats(),
	}
}

// detach ends the replica's service: reads are refused with ErrClosed, the
// in-flight storage reads unwind, and the reader drains them, releases the
// replica's pin in the writer's registry and leaves the network. A replica
// whose stream ended runs it itself: its writer is gone, GC no longer
// protects its view, and the new writer's MRPL must not wait for it.
func (r *Replica) detach() {
	r.closed.Store(true)
	r.ctxCancel()
	r.reader.Close()
}

// Close detaches the replica, unwinding its in-flight storage reads first,
// then its stream from the writer, and waits for the apply loop to exit.
func (r *Replica) Close() {
	r.detach()
	r.stream.Close()
	<-r.done
}

// Closed reports whether the replica has detached: closed by its owner, or
// its writer's stream ended.
func (r *Replica) Closed() bool { return r.closed.Load() }
