package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"aurora/internal/btree"
)

// Errors a transaction's front end returns.
var (
	ErrTxDone     = errors.New("txn: transaction already finished")
	ErrReadOnlyTx = errors.New("txn: write on read-only transaction")
)

// Manager is what a database instance keeps for its transactions: the row
// lock table, the id source and the outcome counters. Both the Aurora engine
// and the MySQL baseline hold one, so a statement costs the same on either
// until its commit has to become durable.
type Manager struct {
	Locks *LockTable
	ids   IDs

	begins, commits, aborts atomic.Uint64
}

// NewManager returns a manager over an empty lock table. lockTimeout <= 0
// selects the default.
func NewManager(lockTimeout time.Duration) *Manager {
	return &Manager{Locks: NewLockTable(lockTimeout)}
}

// Begin starts a writer transaction.
func (m *Manager) Begin() WriteSet {
	m.begins.Add(1)
	return WriteSet{m: m, id: m.ids.Next(), writes: make(map[string]writeOp)}
}

// BeginReadOnly starts a transaction that takes no locks and buffers no
// writes: Put and Delete fail with ErrReadOnlyTx.
func (m *Manager) BeginReadOnly() WriteSet {
	m.begins.Add(1)
	return WriteSet{m: m, id: m.ids.Next()}
}

// Counts returns how many transactions began, committed and aborted.
func (m *Manager) Counts() (begins, commits, aborts uint64) {
	return m.begins.Load(), m.commits.Load(), m.aborts.Load()
}

// WriteSet is everything a transaction does before its commit becomes
// durable: it buffers writes privately under exclusive row locks (2PL on the
// write set), answers the transaction's reads of its own writes, and applies
// the buffer to the tree in first-touch order at commit — so pages and the log
// only ever contain committed data. Engines embed it by value and add what
// differs between them: how a commit is made durable.
type WriteSet struct {
	m      *Manager
	id     uint64
	writes map[string]writeOp // nil on a read-only transaction
	order  []string           // keys in first-touch order
	done   bool
}

type writeOp struct {
	val []byte
	del bool
}

// ID returns the transaction's identifier.
func (ws *WriteSet) ID() uint64 { return ws.id }

// Done reports whether the transaction has committed or aborted.
func (ws *WriteSet) Done() bool { return ws.done }

// ReadOnly reports whether the transaction was begun read-only.
func (ws *WriteSet) ReadOnly() bool { return ws.writes == nil }

// Len returns the number of rows with a buffered write.
func (ws *WriteSet) Len() int { return len(ws.order) }

// Put buffers an insert/update, taking the exclusive row lock. A lock
// timeout aborts the transaction.
//
// Ownership: val is BORROWED until the transaction resolves — it is not
// copied. Callers must not mutate the backing array between Put and
// Commit/Abort; the B+-tree apply path copies the bytes into page images, so
// nothing the write set hands on references val after commit (whatever
// outlives the commit, such as the baseline's replication stream, copies it).
// Pending copies out, so a caller mutating a value returned by a read cannot
// alias this buffer either.
func (ws *WriteSet) Put(key, val []byte) error { return ws.buffer(key, writeOp{val: val}) }

// Delete buffers a deletion, taking the exclusive row lock.
func (ws *WriteSet) Delete(key []byte) error { return ws.buffer(key, writeOp{del: true}) }

// buffer validates a write against the btree limits, takes key's row lock and
// records op as the transaction's latest write to it.
func (ws *WriteSet) buffer(key []byte, op writeOp) error {
	switch {
	case ws.done:
		return ErrTxDone
	case ws.ReadOnly():
		return ErrReadOnlyTx
	case len(key) == 0:
		return btree.ErrEmptyKey
	case len(key) > btree.MaxKey && !op.del: // no such row exists to delete
		return btree.ErrKeyTooLarge
	case len(op.val) > btree.MaxValue:
		return btree.ErrValueTooLarge
	}
	// A lock timeout aborts the transaction so deadlocks resolve: the caller
	// sees the error and must not reuse the transaction.
	if err := ws.m.Locks.Acquire(ws.id, string(key)); err != nil {
		ws.Finish(false)
		return fmt.Errorf("txn %d key %q: %w", ws.id, key, err)
	}
	k := string(key)
	if _, seen := ws.writes[k]; !seen {
		ws.order = append(ws.order, k)
	}
	ws.writes[k] = op
	return nil
}

// Pending answers a read from the transaction's own writes. ok is false when
// the key is untouched and the read must go to the tree; otherwise found and
// val (a copy) are the answer.
func (ws *WriteSet) Pending(key []byte) (val []byte, found, ok bool) {
	w, ok := ws.writes[string(key)]
	if !ok || w.del {
		return nil, false, ok
	}
	return append([]byte(nil), w.val...), true, true
}

// Scan visits rows with from <= key < to in key order, overlaying the
// transaction's uncommitted writes on the committed state of t. The caller
// holds whatever latch reading t needs.
func (ws *WriteSet) Scan(t *btree.Tree, from, to []byte, fn func(key, val []byte) bool) error {
	// Pending write keys in range, sorted.
	var pend []string
	for k := range ws.writes {
		if (from == nil || k >= string(from)) && (to == nil || k < string(to)) {
			pend = append(pend, k)
		}
	}
	sort.Strings(pend)
	pi, stopped := 0, false
	visit := func(k, v []byte) bool {
		stopped = !fn(k, v)
		return !stopped
	}
	// flush visits the pending keys below upTo (all that are left when nil)
	// and reports whether the scan goes on.
	flush := func(upTo []byte) bool {
		for ; pi < len(pend) && (upTo == nil || pend[pi] < string(upTo)); pi++ {
			if w := ws.writes[pend[pi]]; !w.del && !visit([]byte(pend[pi]), w.val) {
				return false
			}
		}
		return true
	}
	err := t.Scan(from, to, func(k, v []byte) bool {
		if !flush(k) {
			return false
		}
		if pi < len(pend) && pend[pi] == string(k) { // the row has a pending write
			w := ws.writes[pend[pi]]
			pi++
			if w.del {
				return true
			}
			v = w.val
		}
		return visit(k, v)
	})
	if err == nil && !stopped {
		flush(nil)
	}
	return err
}

// Apply materializes the buffer into t in first-touch order, recording the
// page changes in rec. The caller holds the exclusive latch. On error the
// pages are rolled back to their before-images; the transaction is not
// finished.
func (ws *WriteSet) Apply(t *btree.Tree, rec *btree.Recorder) error {
	for _, k := range ws.order {
		w := ws.writes[k]
		var err error
		if w.del {
			_, err = t.Delete(rec, []byte(k))
		} else {
			err = t.Put(rec, []byte(k), w.val)
		}
		if err != nil {
			rec.Rollback()
			return fmt.Errorf("txn %d apply: %w", ws.id, err)
		}
	}
	return nil
}

// Each visits the buffered writes in first-touch order — the order Apply
// uses. val is the borrowed buffer Put was given.
func (ws *WriteSet) Each(fn func(key string, val []byte, del bool)) {
	for _, k := range ws.order {
		w := ws.writes[k]
		fn(k, w.val, w.del)
	}
}

// Finish ends the transaction: its row locks are released and its outcome
// counted.
func (ws *WriteSet) Finish(committed bool) {
	ws.done = true
	ws.m.Locks.ReleaseAll(ws.id)
	if committed {
		ws.m.commits.Add(1)
	} else {
		ws.m.aborts.Add(1)
	}
}

// Abort discards the write set and releases the transaction's locks.
// Nothing was ever applied to the tree or the log, so there is nothing to
// undo.
func (ws *WriteSet) Abort() {
	if !ws.done {
		ws.Finish(false)
	}
}
