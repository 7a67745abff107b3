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

// ErrClosed is returned by reads on a closed replica.
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
	Events    uint64
	Applied   uint64 // records applied to cached pages
	Discarded uint64 // records for uncached pages
	Buffered  int    // records above the VDL awaiting durability
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

	mu      sync.RWMutex // excludes reads during atomic MTR application
	vdl     core.LSN
	vdlA    atomic.Uint64 // lock-free mirror of vdl for the eviction fence
	pending []core.Record // records above vdl, in LSN order
	tails   map[core.PGID]core.LSN

	cancel func()
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	events    atomic.Uint64
	applied   atomic.Uint64
	discarded atomic.Uint64
}

// Attach creates a replica consuming db's log stream and reading cold
// pages from the fleet.
func Attach(db *engine.DB, f *volume.Fleet, cfg Config) *Replica {
	if cfg.CachePages <= 0 {
		cfg.CachePages = 4096
	}
	ctx, ctxCancel := context.WithCancel(context.Background())
	r := &Replica{
		name:      cfg.Name,
		reader:    volume.NewReader(f, cfg.Name, cfg.AZ),
		tracer:    cfg.Tracer,
		ctx:       ctx,
		ctxCancel: ctxCancel,
		pgOfAt:    f.PGOfAt,
		tails:     make(map[core.PGID]core.LSN),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	// The replica's cache eviction fence is its own applied VDL.
	r.cache = bufcache.New(cfg.CachePages, r.VDL)
	events, cancel := db.Subscribe()
	r.cancel = cancel
	// Seed the view from the writer's current durable state so reads issued
	// before the first stream event see real data, not an empty volume.
	// Events already queued re-advance idempotently.
	vol := db.Volume()
	r.vdl = vol.VDL()
	r.vdlA.Store(uint64(r.vdl))
	// Pin the starting view: storage GC must keep every version this
	// replica could still read (the writer folds reader pins into its
	// MRPL). The pin advances with the applied VDL in ingest.
	r.reader.PinReadPoint(r.vdl)
	for g := 0; g < f.PGs(); g++ {
		if tail := vol.DurableTail(core.PGID(g)); tail > 0 {
			r.tails[core.PGID(g)] = tail
		}
	}
	go r.loop(events)
	return r
}

func (r *Replica) loop(events <-chan engine.Event) {
	defer close(r.done)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			r.events.Add(1)
			r.ingest(ev)
		case <-r.stop:
			return
		}
	}
}

// ingest buffers the event's records and applies everything at or below
// the new VDL atomically.
func (r *Replica) ingest(ev engine.Event) {
	sp := r.traceStart("replica.apply")
	trace.Annotate(sp, "records", len(ev.Records))
	trace.Annotate(sp, "stream_vdl", ev.VDL)
	r.mu.Lock()
	defer r.mu.Unlock()
	bsp := sp.Child("replica.buffer")
	r.pending = append(r.pending, ev.Records...)
	bsp.End()
	newVDL := r.vdl
	if ev.VDL > newVDL {
		newVDL = ev.VDL
	}
	// Apply the prefix of pending records at or below the VDL. The VDL is
	// always a CPL, so this prefix is a whole number of MTRs; holding the
	// exclusive lock for the whole prefix makes the application atomic
	// with respect to replica reads.
	asp := sp.Child("replica.advance")
	cut := 0
	for cut < len(r.pending) && r.pending[cut].LSN <= newVDL {
		rec := &r.pending[cut]
		r.applyLocked(rec)
		cut++
	}
	if cut > 0 {
		r.pending = append([]core.Record(nil), r.pending[cut:]...)
	}
	trace.Annotate(asp, "applied", cut)
	trace.Annotate(asp, "lag_records", len(r.pending))
	asp.End()
	if newVDL > r.vdl {
		r.vdl = newVDL
		r.vdlA.Store(uint64(newVDL))
		// Advance the GC pin with the applied view (monotone).
		r.reader.PinReadPoint(newVDL)
	}
	trace.Annotate(sp, "vdl", r.vdl)
	sp.End()
}

// traceStart samples a replica-side root span; nil when no tracer is
// attached or this event loses the sampling lottery.
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
func (r *Replica) VDL() core.LSN { return core.LSN(r.vdlA.Load()) }

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
	return &replicaStore{Pins: r.cache.NewPins(), r: r, ctx: r.joinCtx(ctx), readPoint: r.vdl}
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
	r.mu.RLock()
	buffered := len(r.pending)
	vdl := r.vdl
	r.mu.RUnlock()
	return Stats{
		Events:    r.events.Load(),
		Applied:   r.applied.Load(),
		Discarded: r.discarded.Load(),
		Buffered:  buffered,
		VDL:       vdl,
		Cache:     r.cache.Stats(),
	}
}

// Close detaches the replica from the stream and the network.
func (r *Replica) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.cancel()
	r.ctxCancel()
	close(r.stop)
	<-r.done
	// Reader.Close drains in-flight hedged fetches and releases this
	// replica's read-point pin before leaving the network.
	r.reader.Close()
}
