package mysql

import (
	"sort"
	"time"

	"aurora/internal/core"
	"aurora/internal/page"
)

// RecoveryReport describes an ARIES-style crash recovery: the database is
// offline while the redo log since the last checkpoint is read back and
// applied page by page — the cost Aurora amortizes into normal foreground
// processing (§4.3).
type RecoveryReport struct {
	RedoRecords  int
	PagesTouched int
	Duration     time.Duration
	From         core.LSN // checkpoint LSN redo started at
	To           core.LSN // durable LSN redo finished at
}

// CrashAndRecover simulates an instance crash followed by restart
// recovery. The buffer cache and dirty-page set are lost; the stable store
// and the durable WAL survive. Recovery holds the database offline
// (exclusive latch) for its entire duration.
func (db *DB) CrashAndRecover() (*RecoveryReport, error) {
	db.latch.Lock()
	defer db.latch.Unlock()

	// Crash: runtime state vanishes.
	db.cache.Invalidate()
	db.mu.Lock()
	db.dirty = make(map[core.PageID]bool)
	redo := make([]core.Record, 0, len(db.wal))
	for _, r := range db.wal {
		if r.LSN > db.ckptLSN {
			redo = append(redo, r)
		}
	}
	from, to := db.ckptLSN, db.durable
	db.mu.Unlock()
	sort.Slice(redo, func(i, j int) bool { return redo[i].LSN < redo[j].LSN })

	start := time.Now()
	rep := &RecoveryReport{RedoRecords: len(redo), From: from, To: to}

	// Analysis + redo: sequential WAL read, then per-page load/apply/write.
	walBytes := 0
	for i := range redo {
		walBytes += redo[i].BodySize()
	}
	if walBytes > 0 {
		if err := db.logVol.Read(db.rootCtx, walBytes); err != nil {
			return nil, err
		}
	}
	loaded := make(map[core.PageID]page.Page)
	for i := range redo {
		r := &redo[i]
		if !r.PageRecord() {
			continue
		}
		p, ok := loaded[r.Page]
		if !ok {
			db.mu.Lock()
			stable, have := db.stable[r.Page]
			if have {
				p = stable.Clone()
			} else {
				p = page.New(r.Page)
			}
			db.mu.Unlock()
			if err := db.dataVol.Read(db.rootCtx, page.Size); err != nil {
				return nil, err
			}
			loaded[r.Page] = p
		}
		if r.LSN > p.LSN() {
			if err := p.Apply(r); err != nil {
				return nil, err
			}
		}
	}
	// Write recovered pages back.
	for id, p := range loaded {
		if err := db.dataVol.Write(db.rootCtx, page.Size); err != nil {
			return nil, err
		}
		db.mu.Lock()
		db.stable[id] = p
		db.mu.Unlock()
	}
	rep.PagesTouched = len(loaded)
	rep.Duration = time.Since(start)

	// With the write-set commit model every durable record belongs to a
	// committed transaction, so the undo pass finds nothing in flight —
	// lock state simply restarts empty.
	return rep, nil
}
