// Package engine implements the Aurora database engine: the part of the
// kernel that stays on the database instance. Query processing (a key/value
// + range-scan API standing in for SQL), transactions, locking, the buffer
// cache and the B+-tree access method all live here, exactly as in §1 —
// while redo logging, durable storage, backup and crash recovery are
// offloaded to the storage service behind the volume client.
//
// The engine never writes a page anywhere: every mutation becomes redo
// records in a mini-transaction, and cached pages are just the engine's
// private materialization of the log.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/btree"
	"aurora/internal/bufcache"
	"aurora/internal/core"
	"aurora/internal/metrics"
	"aurora/internal/page"
	"aurora/internal/trace"
	"aurora/internal/txn"
	"aurora/internal/volume"
)

// Errors returned by the engine.
var (
	ErrTxDone     = txn.ErrTxDone
	ErrReadOnlyTx = txn.ErrReadOnlyTx
	ErrDegraded   = errors.New("engine: storage quorum lost; writes suspended")
	ErrClosed     = errors.New("engine: database closed")
	// ErrDeadlineExceeded is returned by CommitCtx (and ctx-bounded reads)
	// when the caller's deadline fires before the commit acknowledgement.
	// The commit itself is NOT rolled back: once applied and enqueued it
	// still frames, ships and becomes durable — only the waiter detaches
	// (see DESIGN.md, "Deadlines & cancellation").
	ErrDeadlineExceeded = errors.New("engine: deadline exceeded")
)

// Config tunes a database instance.
type Config struct {
	// CachePages is the buffer cache capacity in pages (instance size knob;
	// Figures 6–7 sweep it).
	CachePages int
	// LockTimeout bounds row lock waits; 0 selects the default.
	LockTimeout time.Duration
	// SyncCommit is an ablation: hold the engine's exclusive latch through
	// framing, quorum shipping and durability, as a traditional synchronous
	// commit would stall its worker thread (§4.2.2 inverted). The commit
	// still goes through the pipeline; nothing else can enter it meanwhile,
	// so group size is forced to 1.
	SyncCommit bool
	// FullPageWrites is an ablation: ship full page images instead of byte
	// deltas, as a page-shipping architecture would (§3.1).
	FullPageWrites bool
	// CommitQueueDepth bounds the commit pipeline's apply→framing queue
	// (default 256). When the framer stalls on LAL back-pressure the queue
	// fills and new committers block before taking the engine latch — so
	// back-pressure throttles writers without ever blocking readers.
	CommitQueueDepth int
	// MaxCommitGroup caps how many queued commits one framing critical
	// section absorbs (default 64).
	MaxCommitGroup int
	// MaxInflightGroups bounds how many framed groups may be awaiting
	// durability at once before the framer pauses (default 4).
	MaxInflightGroups int
	// TraceEvery samples 1 in N commits (and cache-miss page reads) into
	// the causal tracing subsystem; 0 disables sampling, leaving only an
	// atomic load on the hot path. It can be changed at runtime through
	// Tracer().SetSampleEvery.
	TraceEvery int
	// TraceRing is the completed-trace ring capacity (default 256).
	TraceRing int
}

func (c Config) withDefaults() Config {
	if c.CachePages <= 0 {
		c.CachePages = 4096
	}
	if c.CommitQueueDepth <= 0 {
		c.CommitQueueDepth = 256
	}
	if c.MaxCommitGroup <= 0 {
		c.MaxCommitGroup = 64
	}
	if c.MaxInflightGroups <= 0 {
		c.MaxInflightGroups = 4
	}
	return c
}

// DB is one database instance attached as the single writer of a volume.
type DB struct {
	cfg      Config
	vol      *volume.Client
	cache    *bufcache.Cache
	txns     *txn.Manager
	latch    sync.RWMutex // tree structure latch: shared reads, exclusive writes
	feed     *feed
	pipeline *commitPipeline
	tracer   *trace.Collector

	// rootCtx bounds the instance's own IO (background framing, group
	// shipping, default read paths). Close cancels it only after the commit
	// pipeline drains; Crash cancels it immediately.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	degraded atomic.Bool

	reads atomic.Uint64 // pages read from the volume

	// Commit-path gauges, recorded lock-free on the hot path.
	commitLat  metrics.Histogram // commit latency, nanoseconds
	groupSizes metrics.Histogram // commits per framed group
}

// Create formats a brand-new database on an empty volume. The format MTR
// commits through the pipeline like any other, as transaction 0. A failed
// Create has closed the instance, and the volume client with it: a writer
// whose first write lost its quorum is of no further use (volume.GroupWrite).
func Create(vol *volume.Client, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	db := newDB(vol, cfg)
	db.pipeline = newCommitPipeline(db)
	if err := db.format(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func (db *DB) format() error {
	ws := db.writeStore()
	rec := btree.NewRecorder()
	if _, err := btree.Create(ws, rec); err != nil {
		ws.Release()
		return err
	}
	m := &core.MTR{Txn: 0}
	if err := rec.AppendRecords(m, db.vol.PGOf); err != nil {
		ws.Release()
		return err
	}
	if err := db.pipeline.reserve(db.rootCtx); err != nil {
		ws.Release()
		return err
	}
	req := &commitReq{mtr: m, rec: rec, ws: ws, errc: make(chan error, 1)}
	db.pipeline.enqueue(req)
	if err := <-req.errc; err != nil {
		return fmt.Errorf("engine: formatting volume: %w", err)
	}
	return nil
}

// Open attaches to an existing database (e.g. after Recover). Nothing is
// replayed: the storage service already holds every durable change, and
// pages materialize on demand (§4.3 — "nothing is required at database
// startup").
func Open(vol *volume.Client, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	db := newDB(vol, cfg)
	rs := db.readStore(db.rootCtx)
	_, err := btree.Open(&rs)
	rs.Release()
	if err != nil {
		return nil, err
	}
	db.pipeline = newCommitPipeline(db)
	return db, nil
}

func newDB(vol *volume.Client, cfg Config) *DB {
	rootCtx, rootCancel := context.WithCancel(context.Background())
	return &DB{
		cfg:        cfg,
		vol:        vol,
		cache:      bufcache.New(cfg.CachePages, vol.VDL),
		txns:       txn.NewManager(cfg.LockTimeout),
		feed:       newFeed(),
		tracer:     newTracer(cfg),
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
	}
}

// Recover performs volume recovery against the fleet and opens the
// database on the recovered volume. The returned report carries the
// recovery's durable points and timing.
// ctx bounds the recovery conversation with the storage fleet.
func Recover(ctx context.Context, f *volume.Fleet, vcfg volume.ClientConfig, cfg Config) (*DB, *volume.RecoveryReport, error) {
	vol, rep, err := volume.Recover(ctx, f, vcfg)
	if err != nil {
		return nil, nil, err
	}
	db, err := Open(vol, cfg)
	if err != nil {
		vol.Close()
		return nil, nil, err
	}
	return db, rep, nil
}

func newTracer(cfg Config) *trace.Collector {
	c := trace.NewCollector(cfg.TraceRing)
	if cfg.TraceEvery > 0 {
		c.SetSampleEvery(uint64(cfg.TraceEvery))
	}
	return c
}

// Tracer returns the instance's causal-tracing collector. Sampling can be
// toggled at runtime with Tracer().SetSampleEvery.
func (db *DB) Tracer() *trace.Collector { return db.tracer }

// Volume returns the underlying volume client.
func (db *DB) Volume() *volume.Client { return db.vol }

// Cache returns the buffer cache (observability and the ZDP spooler).
func (db *DB) Cache() *bufcache.Cache { return db.cache }

// VDL returns the current volume durable LSN.
func (db *DB) VDL() core.LSN { return db.vol.VDL() }

// Degraded reports whether a write quorum failure has suspended writes.
func (db *DB) Degraded() bool { return db.degraded.Load() }

// Close shuts the engine down gracefully: lock waiters are released, the
// commit pipeline is drained (closing the volume client first unblocks a
// framer stalled on the LAL), and cached state is discarded.
func (db *DB) Close() {
	db.txns.Locks.Close()
	db.pipeline.stop()
	db.vol.Close()
	db.pipeline.wait()
	// Cancel the root only after the drain: in-flight groups must ship
	// gracefully, not be abandoned mid-quorum.
	db.rootCancel()
	db.feed.close()
}

// Crash simulates an instance failure: runtime state (cache, locks,
// feeds, the commit pipeline) is lost; the storage fleet keeps everything
// durable.
func (db *DB) Crash() {
	db.rootCancel()
	db.txns.Locks.Close()
	db.pipeline.stop()
	db.cache.Invalidate()
	db.vol.Crash()
	db.pipeline.wait()
	db.feed.close()
}

// PipelineStats summarises the commit pipeline's behaviour: how many
// framing critical sections ran, how large the framed groups were, and the
// commit latency distribution, all collected lock-free on the hot path.
type PipelineStats struct {
	Frames         uint64  // framing ops (one per group; < Commits when grouping engages)
	GroupedCommits uint64  // commits that passed through the pipeline
	MeanGroupSize  float64 // GroupedCommits / Frames
	MaxGroupSize   uint64
	CommitP50      time.Duration
	CommitP95      time.Duration
	CommitP99      time.Duration
	CommitMean     time.Duration
	QueuedCommits  int // commits currently waiting to be framed
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Begins   uint64
	Commits  uint64
	Aborts   uint64
	Reads    uint64
	Cache    bufcache.Stats
	Volume   volume.Stats
	Pipeline PipelineStats
	Trace    trace.Stats
	Waits    uint64
	Wounds   uint64
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	waits, wounds := db.txns.Locks.Stats()
	begins, commits, aborts := db.txns.Counts()
	vs := db.vol.Stats()
	ps := PipelineStats{
		Frames:         vs.Frames,
		GroupedCommits: db.groupSizes.Sum(),
		MaxGroupSize:   db.groupSizes.Max(),
		CommitP50:      db.commitLat.QuantileDuration(0.50),
		CommitP95:      db.commitLat.QuantileDuration(0.95),
		CommitP99:      db.commitLat.QuantileDuration(0.99),
		CommitMean:     time.Duration(db.commitLat.Mean()),
	}
	if n := db.groupSizes.Count(); n > 0 {
		ps.MeanGroupSize = float64(ps.GroupedCommits) / float64(n)
	}
	db.pipeline.mu.Lock()
	ps.QueuedCommits = len(db.pipeline.queue)
	db.pipeline.mu.Unlock()
	return Stats{
		Begins:   begins,
		Commits:  commits,
		Aborts:   aborts,
		Reads:    db.reads.Load(),
		Cache:    db.cache.Stats(),
		Volume:   vs,
		Pipeline: ps,
		Trace:    db.tracer.Stats(),
		Waits:    waits,
		Wounds:   wounds,
	}
}

// Rows returns the approximate number of live rows.
func (db *DB) Rows() (uint64, error) {
	db.latch.RLock()
	defer db.latch.RUnlock()
	rs := db.readStore(db.rootCtx)
	defer rs.Release()
	return btree.View(&rs).Rows()
}

// readStore serves tree reads from the cache, falling back to the volume.
// Readers hold the tree latch shared, which excludes every mutation, and pin
// each page until Release (bufcache.Pins) like every other user of the cache:
// a page that lost its pin could be evicted under the reader and its frame
// refilled by another reader's miss.
type readStore struct {
	bufcache.Pins
	db  *DB
	ctx context.Context
}

func (db *DB) readStore(ctx context.Context) readStore {
	return readStore{Pins: db.cache.NewPins(), db: db, ctx: ctx}
}

func (s *readStore) Page(id core.PageID) (page.Page, error) {
	if p, ok := s.Get(id); ok {
		return p, nil
	}
	sp := s.db.tracer.Start("read.page")
	trace.Annotate(sp, "page", id)
	p, err := s.db.fetch(trace.NewContext(s.ctx, sp), &s.Pins, id)
	sp.End()
	return p, err
}

func (s *readStore) FreshPage(core.PageID) (page.Page, error) {
	return nil, errors.New("engine: fresh page on read path")
}

// fetch serves a miss: the page is read from the volume into a recycled frame
// and cached, pinned in s.
func (db *DB) fetch(ctx context.Context, s *bufcache.Pins, id core.PageID) (page.Page, error) {
	p, err := s.Fill(id, func(frame page.Page) error {
		_, err := db.vol.ReadPageInto(ctx, id, frame)
		return err
	})
	if err == nil {
		db.reads.Add(1)
	}
	return p, err
}

// writeStore serves the mutation path: every page is pinned until Release
// (bufcache.Pins), and a miss reads under the instance root — a commit's
// apply is not bounded by the committer's deadline.
type writeStore struct {
	bufcache.Pins
	db *DB
}

func (db *DB) writeStore() *writeStore {
	return &writeStore{Pins: db.cache.NewPins(), db: db}
}

func (s *writeStore) Page(id core.PageID) (page.Page, error) {
	if p, ok := s.Get(id); ok {
		return p, nil
	}
	return s.db.fetch(s.db.rootCtx, &s.Pins, id)
}

// snapStore reads pages as of a historical read point directly from the
// storage service, bypassing the cache (whose pages are newer). It backs
// consistent snapshot transactions.
type snapStore struct {
	db        *DB
	ctx       context.Context
	readPoint core.LSN
}

func (s *snapStore) Page(id core.PageID) (page.Page, error) {
	sp := s.db.tracer.Start("read.page")
	trace.Annotate(sp, "page", id)
	trace.Annotate(sp, "snapshot", s.readPoint)
	p, err := s.db.vol.ReadPageAt(trace.NewContext(s.ctx, sp), id, s.readPoint)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.db.reads.Add(1)
	return p, nil
}

func (s *snapStore) FreshPage(core.PageID) (page.Page, error) {
	return nil, errors.New("engine: fresh page on snapshot path")
}

func cloneRecords(in []core.Record) []core.Record {
	out := make([]core.Record, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}
