// Package txn provides the transaction-side concurrency control of the
// database engine. Aurora runs concurrency control entirely in the engine,
// exactly as if the pages were in local storage (§4.2.3): the storage
// service is not involved. This package implements the row lock table
// (exclusive locks, FIFO queuing, timeout-based deadlock resolution),
// transaction identity and the write set (writeset.go): everything a
// statement does before its commit has to become durable. The Aurora engine
// and the MySQL baseline both embed it, so the paper's comparisons differ
// only in what each does from there — the commit pipeline and the volume on
// one side, WAL, binlog and page flushes on the other.
package txn

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the lock table.
var (
	ErrLockTimeout = errors.New("txn: lock wait timeout (possible deadlock)")
	ErrLockClosed  = errors.New("txn: lock table closed")
)

// DefaultLockTimeout bounds lock waits; a timeout aborts the waiter, which
// is how deadlocks are broken (InnoDB's innodb_lock_wait_timeout).
const DefaultLockTimeout = 2 * time.Second

type waiter struct {
	txn uint64
	ch  chan struct{}
}

// lockState is one locked row. It is held by value in the table: a row's
// lock costs no object of its own.
type lockState struct {
	holder uint64
	queue  []*waiter
	prev   string // the row its holder was granted before this one, if any
}

// chain is a transaction's locked rows: the last one it was granted and how
// many there are, each row's prev naming the one before.
type chain struct {
	last string
	n    int
}

// LockTable grants exclusive row locks to transactions. It keeps one entry
// per locked row, keyed by the string its first holder passed in (the write
// set's one copy of the key), and per transaction the head of the chain its
// rows form through prev: releasing a transaction's locks costs its own
// rows, not the table's, and allocates nothing per transaction.
type LockTable struct {
	mu      sync.Mutex
	locks   map[string]lockState
	held    map[uint64]chain
	timeout time.Duration
	closed  bool

	waits    atomic.Uint64
	timeouts atomic.Uint64
}

// NewLockTable returns an empty table. timeout <= 0 selects the default.
func NewLockTable(timeout time.Duration) *LockTable {
	if timeout <= 0 {
		timeout = DefaultLockTimeout
	}
	return &LockTable{locks: make(map[string]lockState), held: make(map[uint64]chain), timeout: timeout}
}

// Acquire takes the exclusive lock on key for txn, blocking behind earlier
// holders. Re-acquiring a held lock is a no-op. A wait longer than the
// table timeout fails with ErrLockTimeout and the caller must abort. The
// table keeps key (not a copy) while the row is locked.
func (lt *LockTable) Acquire(txn uint64, key string) error {
	lt.mu.Lock()
	if lt.closed {
		lt.mu.Unlock()
		return ErrLockClosed
	}
	ls, held := lt.locks[key]
	if !held {
		lt.grantLocked(txn, key, lockState{})
		lt.mu.Unlock()
		return nil
	}
	if ls.holder == txn {
		lt.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, ch: make(chan struct{})}
	ls.queue = append(ls.queue, w)
	lt.locks[key] = ls
	lt.mu.Unlock()
	lt.waits.Add(1)

	timer := time.NewTimer(lt.timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		// Granted by a release (the granter recorded us as holder) or the
		// table closed underneath us.
		lt.mu.Lock()
		closed := lt.closed
		lt.mu.Unlock()
		if closed {
			return ErrLockClosed
		}
		return nil
	case <-timer.C:
		lt.timeouts.Add(1)
		lt.mu.Lock()
		defer lt.mu.Unlock()
		// Race: the grant may have happened while the timer fired.
		select {
		case <-w.ch:
			if lt.closed {
				return ErrLockClosed
			}
			return nil
		default:
		}
		// Not granted, so the row is still locked and w still queued on it.
		ls := lt.locks[key]
		ls.queue = slices.DeleteFunc(ls.queue, func(q *waiter) bool { return q == w })
		lt.locks[key] = ls
		return ErrLockTimeout
	}
}

// TryAcquire takes the lock only if free (or already held by txn).
func (lt *LockTable) TryAcquire(txn uint64, key string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.closed {
		return false
	}
	if ls, held := lt.locks[key]; held {
		return ls.holder == txn
	}
	lt.grantLocked(txn, key, lockState{})
	return true
}

// grantLocked makes txn the holder of key and puts the row at the head of
// txn's chain.
func (lt *LockTable) grantLocked(txn uint64, key string, ls lockState) {
	c := lt.held[txn]
	ls.holder, ls.prev = txn, c.last
	lt.locks[key] = ls
	lt.held[txn] = chain{last: key, n: c.n + 1}
}

// ReleaseAll drops every lock txn holds, granting each to its next waiter in
// FIFO order.
func (lt *LockTable) ReleaseAll(txn uint64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	c, ok := lt.held[txn]
	if !ok {
		return
	}
	delete(lt.held, txn)
	key := c.last
	for range c.n {
		ls := lt.locks[key]
		prev := ls.prev
		if len(ls.queue) == 0 {
			delete(lt.locks, key)
		} else {
			next := ls.queue[0]
			ls.queue = ls.queue[1:]
			lt.grantLocked(next.txn, key, ls)
			close(next.ch)
		}
		key = prev
	}
}

// Holder reports the current holder of key, if locked.
func (lt *LockTable) Holder(key string) (uint64, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	ls, held := lt.locks[key]
	return ls.holder, held
}

// HeldBy returns the number of locks txn currently holds.
func (lt *LockTable) HeldBy(txn uint64) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.held[txn].n
}

// Stats returns the total waits and timeouts observed.
func (lt *LockTable) Stats() (waits, timeouts uint64) {
	return lt.waits.Load(), lt.timeouts.Load()
}

// Close releases every waiter with ErrLockClosed (engine shutdown).
func (lt *LockTable) Close() {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.closed {
		return
	}
	lt.closed = true
	for key, ls := range lt.locks {
		for _, w := range ls.queue {
			close(w.ch)
		}
		ls.queue = nil
		lt.locks[key] = ls
	}
}

// IDs hands out transaction identifiers.
type IDs struct{ next atomic.Uint64 }

// Next returns a fresh transaction id (starting at 1).
func (g *IDs) Next() uint64 { return g.next.Add(1) }
