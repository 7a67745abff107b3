// Package mysql implements the paper's baseline: a traditional
// MySQL/InnoDB-style engine running on networked block storage. It shares
// the B+-tree, page format, buffer cache, lock table and transaction front
// end (txn.WriteSet) with the Aurora engine — the same code, not a copy — so
// that every comparison isolates the architectural difference the paper is
// about: what crosses the network and what stalls the foreground path.
//
// The write path follows Figure 2: redo log records to a write-ahead log,
// a binary log archived for point-in-time restore, modified data pages, a
// double-write of each page to prevent torn pages, all through EBS volumes
// that mirror synchronously — optionally chained to a cross-AZ standby
// whose steps 1, 3, 5 are sequential and synchronous. Checkpointing flushes
// dirty pages in the background and bounds ARIES-style redo at recovery.
package mysql

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
	"aurora/internal/disk"
	"aurora/internal/ebs"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
	"aurora/internal/txn"
)

// BlockDev is the block-storage interface both plain EBS volumes and
// cross-AZ mirrored pairs satisfy.
type BlockDev interface {
	Write(ctx context.Context, size int) error
	Read(ctx context.Context, size int) error
}

// Config tunes the baseline engine.
type Config struct {
	// Instance is the database host's network identity (must be registered
	// by the caller or NewOnNetwork).
	Instance netsim.NodeID
	AZ       netsim.AZ
	// Mirrored selects the Figure 2 active-standby configuration with a
	// cross-AZ synchronous standby; otherwise a single-AZ EBS setup (the
	// configuration of the §6.1 comparisons).
	Mirrored  bool
	StandbyAZ netsim.AZ
	Net       *netsim.Network
	Disk      disk.Config

	CachePages  int
	LockTimeout time.Duration
	// CheckpointDirtyPages triggers a checkpoint once this many pages are
	// dirty (default 128). Checkpoints interfere with foreground traffic —
	// the positive correlation §3.3 contrasts with Aurora.
	CheckpointDirtyPages int
	// GroupCommitMax bounds how many commits one WAL flush can absorb
	// (default 16).
	GroupCommitMax int
	// BinlogArchive receives binlog segments for PITR; nil disables.
	BinlogArchive *objstore.Store
}

func (c *Config) fillDefaults() {
	if c.CachePages <= 0 {
		c.CachePages = 4096
	}
	if c.CheckpointDirtyPages <= 0 {
		c.CheckpointDirtyPages = 128
	}
	if c.GroupCommitMax <= 0 {
		c.GroupCommitMax = 16
	}
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Commits       uint64
	Aborts        uint64
	WALFlushes    uint64
	WALBytes      uint64
	PagesFlushed  uint64
	Checkpoints   uint64
	BinlogBytes   uint64
	StallsOnFlush uint64 // foreground ops that waited behind a checkpoint
	Cache         bufcache.Stats
	RedoRecords   int
	CheckpointLSN core.LSN
	DurableLSN    core.LSN
}

// DB is the baseline engine instance.
type DB struct {
	cfg Config

	// rootCtx bounds the instance's block IO. The baseline has no
	// per-statement deadline story — it exists for architectural
	// comparison — so every volume exchange runs under this root.
	rootCtx context.Context

	logVol    BlockDev
	dataVol   BlockDev
	binlogVol BlockDev

	txns  *txn.Manager
	cache *bufcache.Cache

	latch sync.RWMutex // tree latch, same discipline as the Aurora engine

	mu        sync.Mutex // engine state below
	stable    map[core.PageID]page.Page
	dirty     map[core.PageID]bool
	wal       []core.Record // durable redo since the last checkpoint
	nextLSN   core.LSN
	ckptLSN   core.LSN
	durable   core.LSN
	binlogSeq int

	flushMu sync.Mutex // serializes WAL flushes (the log mutex)

	group *groupCommitter

	repl *Replication

	ckptRunning atomic.Bool

	walFlushes  atomic.Uint64
	walBytes    atomic.Uint64
	pagesFlush  atomic.Uint64
	checkpoints atomic.Uint64
	binlogBytes atomic.Uint64
	stalls      atomic.Uint64
}

// New creates a freshly formatted baseline database. The instance node is
// registered on the network; EBS volumes (and the standby, if mirrored)
// are provisioned around it.
func New(cfg Config) (*DB, error) {
	cfg.fillDefaults()
	if cfg.Net == nil {
		return nil, errors.New("mysql: network required")
	}
	cfg.Net.AddNode(cfg.Instance, cfg.AZ)
	db := &DB{
		cfg:     cfg,
		rootCtx: context.Background(),
		txns:    txn.NewManager(cfg.LockTimeout),
		stable:  make(map[core.PageID]page.Page),
		dirty:   make(map[core.PageID]bool),
	}
	db.cache = bufcache.New(cfg.CachePages, func() core.LSN { return core.LSN(1) << 62 })
	name := string(cfg.Instance)
	if cfg.Mirrored {
		stby := cfg.Instance + "-standby"
		cfg.Net.AddNode(stby, cfg.StandbyAZ)
		db.logVol = ebs.NewMirrored(cfg.Net, name+"-log", cfg.Instance, stby, cfg.AZ, cfg.StandbyAZ, cfg.Disk)
		db.dataVol = ebs.NewMirrored(cfg.Net, name+"-data", cfg.Instance, stby, cfg.AZ, cfg.StandbyAZ, cfg.Disk)
		db.binlogVol = ebs.NewMirrored(cfg.Net, name+"-binlog", cfg.Instance, stby, cfg.AZ, cfg.StandbyAZ, cfg.Disk)
	} else {
		db.logVol = ebs.NewVolume(cfg.Net, name+"-log", cfg.Instance, cfg.AZ, cfg.Disk)
		db.dataVol = ebs.NewVolume(cfg.Net, name+"-data", cfg.Instance, cfg.AZ, cfg.Disk)
		db.binlogVol = ebs.NewVolume(cfg.Net, name+"-binlog", cfg.Instance, cfg.AZ, cfg.Disk)
	}
	db.group = newGroupCommitter(db, cfg.GroupCommitMax)

	// Format: create the tree and flush the formatting MTR like a commit.
	ws := db.store()
	rec := btree.NewRecorder()
	if _, err := btree.Create(ws, rec); err != nil {
		return nil, err
	}
	m := &core.MTR{Txn: 0}
	if err := rec.AppendRecords(m, pg0); err != nil {
		return nil, err
	}
	db.stampAndLog(rec, m)
	ws.Release()
	if err := db.flushWAL(m.Records); err != nil {
		return nil, err
	}
	return db, nil
}

// stampAndLog assigns LSNs to the MTR's records, stamps the cached pages
// and appends to the in-memory WAL buffer view.
func (db *DB) stampAndLog(rec *btree.Recorder, m *core.MTR) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range m.Records {
		db.nextLSN++
		m.Records[i].LSN = db.nextLSN
	}
	rec.StampLSNs(func(id core.PageID) core.LSN {
		var last core.LSN
		for i := range m.Records {
			if m.Records[i].PageRecord() && m.Records[i].Page == id {
				last = m.Records[i].LSN
			}
		}
		return last
	})
	// Content is written through to the stable image immediately so cache
	// eviction can never lose data; the disk IO for the page write is still
	// charged when the dirty page is flushed (eviction or checkpoint),
	// which is what the experiments measure.
	for _, id := range rec.TouchedPages() {
		db.dirty[id] = true
		if p, ok := db.cache.Get(id); ok {
			db.stable[id] = p.Clone()
			db.cache.Unpin(id)
		}
	}
}

// flushWAL persists records through the log volume (sequential,
// synchronous; mirrored when configured) and makes them durable.
func (db *DB) flushWAL(records []core.Record) error {
	size := 0
	var last core.LSN
	for i := range records {
		size += records[i].BodySize()
		if records[i].LSN > last {
			last = records[i].LSN
		}
	}
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	if err := db.logVol.Write(db.rootCtx, size); err != nil {
		return err
	}
	db.mu.Lock()
	db.wal = append(db.wal, records...)
	if last > db.durable {
		db.durable = last
	}
	db.mu.Unlock()
	db.walFlushes.Add(1)
	db.walBytes.Add(uint64(size))
	return nil
}

// writeBinlog archives the statement log for point-in-time restore.
func (db *DB) writeBinlog(bytes int) error {
	if err := db.binlogVol.Write(db.rootCtx, bytes); err != nil {
		return err
	}
	db.binlogBytes.Add(uint64(bytes))
	return nil
}

// mysqlStore adapts the stable store + cache to the btree.Store interface,
// every page pinned until Release (bufcache.Pins).
type mysqlStore struct {
	bufcache.Pins
	db *DB
}

func (db *DB) store() *mysqlStore {
	return &mysqlStore{Pins: db.cache.NewPins(), db: db}
}

func (s *mysqlStore) Page(id core.PageID) (page.Page, error) {
	if p, ok := s.Get(id); ok {
		return p, nil
	}
	// Stable images are replaced, never written in place, so the one taken
	// here can be copied after the unlock.
	s.db.mu.Lock()
	stable, ok := s.db.stable[id]
	s.db.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("mysql: page %d missing", id)
	}
	// A cache miss is a synchronous, foreground disk read (§1) — and if
	// the cache is full of dirty pages, eviction first flushes one
	// (page write + double-write), the extra penalty §1 describes.
	if err := s.db.maybeFlushForEviction(); err != nil {
		return nil, err
	}
	if err := s.db.dataVol.Read(s.db.rootCtx, page.Size); err != nil {
		return nil, err
	}
	return s.Fill(id, func(frame page.Page) error {
		copy(frame, stable)
		return nil
	})
}

// maybeFlushForEviction flushes one dirty page when the cache is at
// capacity, charging the foreground path for it.
func (db *DB) maybeFlushForEviction() error {
	st := db.cache.Stats()
	if st.Len < st.Capacity {
		return nil
	}
	db.mu.Lock()
	var victim core.PageID
	found := false
	for id := range db.dirty {
		victim = id
		found = true
		break
	}
	db.mu.Unlock()
	if !found {
		return nil
	}
	db.stalls.Add(1)
	return db.flushPage(victim)
}

// flushPage writes one page to the data volume with the double-write
// technique: first to the double-write buffer, then in place. The caller
// must hold the tree latch (shared or exclusive) so the page image cannot
// be mutated mid-clone.
func (db *DB) flushPage(id core.PageID) error {
	if err := db.dataVol.Write(db.rootCtx, page.Size); err != nil { // double-write buffer
		return err
	}
	if err := db.dataVol.Write(db.rootCtx, page.Size); err != nil { // page in place
		return err
	}
	db.mu.Lock()
	if p, ok := db.cache.Get(id); ok {
		db.stable[id] = p.Clone()
		db.cache.Unpin(id)
	}
	delete(db.dirty, id)
	db.mu.Unlock()
	db.pagesFlush.Add(2)
	return nil
}

// Checkpoint flushes every dirty page and advances the checkpoint LSN,
// bounding recovery redo. The flush proceeds in bursts that hold the tree
// latch exclusively, so every concurrent statement — reads included —
// stalls for several milliseconds at a time. This is the foreground
// interference §3.3 contrasts with Aurora, where background storage work
// correlates negatively with foreground load.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	ids := make([]core.PageID, 0, len(db.dirty))
	for id := range db.dirty {
		ids = append(ids, id)
	}
	target := db.durable
	db.mu.Unlock()
	const burst = 8
	for i := 0; i < len(ids); i += burst {
		end := i + burst
		if end > len(ids) {
			end = len(ids)
		}
		db.latch.Lock()
		for _, id := range ids[i:end] {
			if err := db.flushPage(id); err != nil {
				db.latch.Unlock()
				return err
			}
		}
		db.latch.Unlock()
	}
	db.mu.Lock()
	if target > db.ckptLSN {
		db.ckptLSN = target
		// Drop WAL records no longer needed for redo.
		keep := db.wal[:0]
		for _, r := range db.wal {
			if r.LSN > db.ckptLSN {
				keep = append(keep, r)
			}
		}
		db.wal = keep
	}
	seq := db.binlogSeq
	db.binlogSeq++
	db.mu.Unlock()
	if err := db.logVol.Write(db.rootCtx, 64); err != nil { // checkpoint record
		return err
	}
	if db.cfg.BinlogArchive != nil {
		db.cfg.BinlogArchive.Put(fmt.Sprintf("binlog/%s/%06d", db.cfg.Instance, seq), nil)
	}
	db.checkpoints.Add(1)
	return nil
}

// maybeCheckpoint triggers a checkpoint when too many pages are dirty.
// Checkpoints are single-flight: with hundreds of connections crossing the
// dirty threshold together, all but one ride on the running checkpoint
// instead of convoying through their own.
func (db *DB) maybeCheckpoint() error {
	db.mu.Lock()
	need := len(db.dirty) >= db.cfg.CheckpointDirtyPages
	db.mu.Unlock()
	if !need {
		return nil
	}
	if !db.ckptRunning.CompareAndSwap(false, true) {
		return nil // one is already flushing on some other connection
	}
	defer db.ckptRunning.Store(false)
	db.stalls.Add(1)
	return db.Checkpoint()
}

// Stats returns a snapshot of counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	redo := len(db.wal)
	ckpt := db.ckptLSN
	dur := db.durable
	db.mu.Unlock()
	_, commits, aborts := db.txns.Counts()
	return Stats{
		Commits:       commits,
		Aborts:        aborts,
		WALFlushes:    db.walFlushes.Load(),
		WALBytes:      db.walBytes.Load(),
		PagesFlushed:  db.pagesFlush.Load(),
		Checkpoints:   db.checkpoints.Load(),
		BinlogBytes:   db.binlogBytes.Load(),
		StallsOnFlush: db.stalls.Load(),
		Cache:         db.cache.Stats(),
		RedoRecords:   redo,
		CheckpointLSN: ckpt,
		DurableLSN:    dur,
	}
}

// Rows returns the approximate live row count.
func (db *DB) Rows() (uint64, error) {
	db.latch.RLock()
	defer db.latch.RUnlock()
	s := db.store()
	defer s.Release()
	return btree.View(s).Rows()
}

// Close releases lock waiters.
func (db *DB) Close() {
	db.txns.Locks.Close()
	if db.repl != nil {
		db.repl.Close()
	}
}
