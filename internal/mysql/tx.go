package mysql

import (
	"time"

	"aurora/internal/btree"
	"aurora/internal/core"
	"aurora/internal/txn"
)

// Tx is the Aurora engine's transaction front end (txn.WriteSet: private
// write set under exclusive row locks, applied at commit) over the baseline's
// storage architecture, so the two engines differ only from the point where a
// commit has to become durable. Put, Delete and Abort are the shared ones.
type Tx struct {
	txn.WriteSet
	db *DB
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return &Tx{WriteSet: db.txns.Begin(), db: db} }

// Get returns the value for key as seen by this transaction.
func (tx *Tx) Get(key []byte) ([]byte, bool, error) {
	if tx.Done() {
		return nil, false, txn.ErrTxDone
	}
	if v, found, ok := tx.Pending(key); ok {
		return v, found, nil
	}
	tx.db.latch.RLock()
	defer tx.db.latch.RUnlock()
	s := tx.db.store()
	defer s.Release()
	return btree.View(s).Get(key)
}

// Scan visits rows in range, overlaying the transaction's writes.
func (tx *Tx) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	if tx.Done() {
		return txn.ErrTxDone
	}
	tx.db.latch.RLock()
	defer tx.db.latch.RUnlock()
	s := tx.db.store()
	defer s.Release()
	return tx.WriteSet.Scan(btree.View(s), from, to, fn)
}

// pg0 places every page in the one protection group a block device is.
func pg0(core.PageID) core.PGID { return 0 }

// Commit applies the write set to the tree, then performs the traditional
// durability protocol: WAL flush (group committed through the serialized
// log mutex and the synchronous EBS chain), binlog write, and — unlike
// Aurora — eventual data page writes with double-writes, plus checkpoint
// stalls when too many pages are dirty.
func (tx *Tx) Commit() error {
	if tx.Done() {
		return txn.ErrTxDone
	}
	if tx.Len() == 0 {
		tx.Finish(true)
		return nil
	}
	db := tx.db
	m, err := tx.applyAndLog()
	if err != nil {
		tx.Finish(false)
		return err
	}

	// Durability: group-committed WAL flush + binlog.
	binlogBytes := 0
	tx.Each(func(key string, val []byte, _ bool) { binlogBytes += len(key) + len(val) + 16 })
	if err := db.group.commit(m.Records, binlogBytes); err != nil {
		tx.Finish(false)
		return err
	}
	// Replicate logical row events after the commit is durable. The relay
	// queue outlives Commit and the write set only borrowed its values, so
	// this is where they are copied.
	if db.repl != nil {
		evs := make([]binlogEvent, 0, tx.Len())
		now := time.Now()
		tx.Each(func(key string, val []byte, del bool) {
			evs = append(evs, binlogEvent{key: key, val: append([]byte(nil), val...), del: del, committed: now})
		})
		db.repl.publish(evs)
	}
	if err := db.maybeCheckpoint(); err != nil {
		tx.Finish(false)
		return err
	}
	tx.Finish(true)
	return nil
}

// applyAndLog materializes the write set into the tree under the exclusive
// latch and stamps its redo into the WAL buffer; nothing is durable yet.
func (tx *Tx) applyAndLog() (*core.MTR, error) {
	db := tx.db
	db.latch.Lock()
	defer db.latch.Unlock()
	s := db.store()
	defer s.Release()
	rec := btree.NewRecorder()
	if err := tx.Apply(btree.View(s), rec); err != nil {
		return nil, err
	}
	m := &core.MTR{Txn: tx.ID()}
	if err := rec.AppendRecords(m, pg0); err != nil {
		rec.Rollback()
		return nil, err
	}
	m.AddMeta(core.RecTxnCommit, 0)
	db.stampAndLog(rec, m)
	return m, nil
}

// Autocommit helpers, the Aurora engine's.

// Put writes one row in its own transaction.
func (db *DB) Put(key, val []byte) error {
	tx := db.Begin()
	if err := tx.Put(key, val); err != nil {
		return err
	}
	return tx.Commit()
}

// Get reads one row.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	tx := db.Begin()
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
