package engine

import (
	"context"
	"fmt"
	"time"

	"aurora/internal/btree"
	"aurora/internal/core"
	"aurora/internal/trace"
	"aurora/internal/txn"
)

// Tx is a transaction. Writer transactions buffer their writes privately
// under exclusive row locks and apply them to the tree as a single
// mini-transaction at commit (txn.WriteSet, which the MySQL baseline shares)
// — so pages, the log, and hence replicas and recovery only ever contain
// committed data. Snapshot transactions are read-only views at a fixed read
// point served straight from the storage service (§4.2.3).
type Tx struct {
	txn.WriteSet // read-only on a snapshot transaction
	db           *DB
	reads        readStore // its ctx bounds this transaction's reads; its pins are one statement's
	point        core.LSN
	release      func()
}

// Begin starts a read-committed writer transaction.
func (db *DB) Begin() *Tx { return db.BeginCtx(context.Background()) }

// BeginCtx starts a writer transaction whose reads are bounded by ctx.
// The commit acknowledgement wait takes its own ctx (CommitCtx).
func (db *DB) BeginCtx(ctx context.Context) *Tx {
	return &Tx{WriteSet: db.txns.Begin(), db: db, reads: db.readStore(ctx)}
}

// BeginSnapshot starts a read-only transaction pinned to the current VDL.
// Its read point holds the volume's low-water mark down until the
// transaction finishes, keeping the page versions it needs alive on the
// storage nodes.
func (db *DB) BeginSnapshot() *Tx { return db.BeginSnapshotCtx(context.Background()) }

// BeginSnapshotCtx is BeginSnapshot with the reads bounded by ctx.
func (db *DB) BeginSnapshotCtx(ctx context.Context) *Tx {
	point, release := db.vol.RegisterReadPoint()
	return &Tx{WriteSet: db.txns.BeginReadOnly(), db: db, reads: db.readStore(ctx), point: point, release: release}
}

// Get returns the value for key as seen by this transaction.
func (tx *Tx) Get(key []byte) ([]byte, bool, error) {
	if tx.Done() {
		return nil, false, ErrTxDone
	}
	if tx.ReadOnly() {
		return btree.View(&snapStore{db: tx.db, ctx: tx.reads.ctx, readPoint: tx.point}).Get(key)
	}
	if v, found, ok := tx.Pending(key); ok {
		return v, found, nil
	}
	tx.db.latch.RLock()
	defer tx.db.latch.RUnlock()
	defer tx.reads.Release()
	return btree.View(&tx.reads).Get(key)
}

// Scan visits rows with from <= key < to in key order, overlaying this
// transaction's own uncommitted writes on the committed tree state.
func (tx *Tx) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	if tx.Done() {
		return ErrTxDone
	}
	if tx.ReadOnly() {
		return btree.View(&snapStore{db: tx.db, ctx: tx.reads.ctx, readPoint: tx.point}).Scan(from, to, fn)
	}
	tx.db.latch.RLock()
	defer tx.db.latch.RUnlock()
	// A store of its own: fn may call Get, whose Release must not drop the
	// pins of the scan around it.
	rs := tx.db.readStore(tx.reads.ctx)
	defer rs.Release()
	return tx.WriteSet.Scan(btree.View(&rs), from, to, fn)
}

// Commit applies the write set to the tree as one mini-transaction, hands
// its records to the commit pipeline, and returns once the commit is
// durable (VDL has reached the commit record). The calling goroutine
// blocks — that is the client waiting for its commit acknowledgement — but
// no engine thread or latch is held while waiting, and no latch is held
// across framing or LAL throttling either: the exclusive latch covers only
// the btree apply (§4.2.2, see the pipeline stages in pipeline.go).
func (tx *Tx) Commit() error { return tx.CommitCtx(context.Background()) }

// CommitCtx is Commit with the acknowledgement wait bounded by ctx. When
// the deadline fires after the write set is applied and enqueued, the
// commit is NOT withdrawn — it still frames, ships, and becomes durable;
// only this waiter detaches, returning an error wrapping
// ErrDeadlineExceeded. A caller seeing that error must treat the
// transaction's outcome as unknown-but-probably-committed (§DESIGN.md,
// "Deadlines & cancellation"). A deadline that fires before the apply is a
// clean abort.
func (tx *Tx) CommitCtx(ctx context.Context) error {
	if tx.Done() {
		return ErrTxDone
	}
	if tx.Len() == 0 { // nothing buffered, or a snapshot
		tx.finish(true)
		return nil
	}
	if err := ctx.Err(); err != nil {
		tx.finish(false)
		return fmt.Errorf("txn %d: %w: %w", tx.ID(), ErrDeadlineExceeded, err)
	}
	if tx.db.Degraded() {
		tx.finish(false)
		return ErrDegraded
	}
	return tx.commitPipelined(ctx)
}

// apply materializes the write set into the tree under the exclusive
// latch, which the caller holds, and returns its redo as one
// mini-transaction. On error the pages are rolled back to their
// before-images and the pins released; the caller still owns the latch.
func (tx *Tx) apply(ws *writeStore, rec *btree.Recorder) (*core.MTR, error) {
	if err := tx.Apply(btree.View(ws), rec); err != nil {
		ws.Release()
		return nil, err
	}
	m := &core.MTR{Txn: tx.ID()}
	if tx.db.cfg.FullPageWrites {
		rec.AppendFullPages(m, tx.db.vol.PGOf)
	} else if err := rec.AppendRecords(m, tx.db.vol.PGOf); err != nil {
		rec.Rollback()
		ws.Release()
		return nil, err
	}
	m.AddMeta(core.RecTxnCommit, tx.db.vol.PGOf(btree.MetaPageID))
	return m, nil
}

// commitPipelined is the commit path, stage 1 of the pipeline. Back-pressure
// is taken in reserve, before any latch; the exclusive latch covers only the
// apply and a pointer enqueue; framing, shipping and durability happen in the
// pipeline's own stages while this goroutine waits on its completion channel.
//
// Config.SyncCommit, the synchronous-commit ablation, is this path with the
// latch kept until the outcome arrives: the worker stalls everyone through
// framing, shipping and durability, which forces group size 1 — the stall the
// pipeline exists to remove. Holding the latch it cannot detach, so it is
// deliberately deadline-oblivious past the apply.
func (tx *Tx) commitPipelined(ctx context.Context) error {
	start := time.Now()
	p := tx.db.pipeline
	root := tx.db.tracer.Start("commit")
	trace.Annotate(root, "txn", tx.ID())
	rsp := root.Child("commit.reserve")
	if err := p.reserve(ctx); err != nil {
		rsp.End()
		root.End()
		tx.finish(false)
		return fmt.Errorf("txn %d: %w", tx.ID(), err)
	}
	rsp.End()
	lsp := root.Child("commit.latch")
	tx.db.latch.Lock()
	lsp.End()
	ws := tx.db.writeStore()
	rec := btree.NewRecorder()
	asp := root.Child("commit.apply")
	m, err := tx.apply(ws, rec)
	asp.End()
	if err != nil {
		tx.db.latch.Unlock()
		p.unreserve()
		trace.Annotate(root, "err", err)
		root.End()
		tx.finish(false)
		return err
	}
	req := &commitReq{mtr: m, rec: rec, ws: ws, errc: make(chan error, 1),
		sp: root, queueSp: root.Child("commit.queue")}
	// Enqueue under the latch: queue order is apply order, so the framer
	// assigns LSNs in exactly the order the tree changed.
	p.enqueue(req)
	deadline := ctx.Done()
	if tx.db.cfg.SyncCommit {
		trace.Annotate(root, "sync", true)
		deadline = nil
		defer tx.db.latch.Unlock()
	} else {
		tx.db.latch.Unlock()
	}

	select {
	case err = <-req.errc:
	case <-deadline:
		// Applied and enqueued: the commit cannot be withdrawn. The group
		// still frames and ships; only this waiter detaches, and the group's
		// completion ends the root span in its place — unless it got there
		// first and did not see the flag: then its outcome is in errc.
		req.detached.Store(true)
		select {
		case err = <-req.errc:
		default:
			trace.Annotate(root, "deadline", ctx.Err())
			tx.finish(true)
			return fmt.Errorf("txn %d: %w: %w", tx.ID(), ErrDeadlineExceeded, ctx.Err())
		}
	}
	if err != nil {
		trace.Annotate(root, "err", err)
		root.End()
		tx.finish(false)
		return fmt.Errorf("txn %d: %w (%v)", tx.ID(), ErrDegraded, err)
	}
	root.End()
	tx.db.commitLat.ObserveDuration(time.Since(start))
	tx.finish(true)
	return nil
}

// Abort discards the write set and releases the transaction's locks.
// Nothing was ever applied to the tree or the log, so there is nothing to
// undo.
func (tx *Tx) Abort() {
	if !tx.Done() {
		tx.finish(false)
	}
}

func (tx *Tx) finish(committed bool) {
	if tx.release != nil {
		tx.release()
	}
	tx.Finish(committed)
}

// Convenience autocommit helpers.

// Put writes one row in its own transaction.
func (db *DB) Put(key, val []byte) error {
	tx := db.Begin()
	if err := tx.Put(key, val); err != nil {
		return err
	}
	return tx.Commit()
}

// Get reads one row (read committed).
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	return db.GetCtx(context.Background(), key)
}

// GetCtx reads one row (read committed) with the read bounded by ctx.
func (db *DB) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	tx := db.BeginCtx(ctx)
	defer tx.Abort()
	return tx.Get(key)
}

// Delete removes one row in its own transaction.
func (db *DB) Delete(key []byte) error {
	tx := db.Begin()
	if err := tx.Delete(key); err != nil {
		return err
	}
	return tx.Commit()
}
