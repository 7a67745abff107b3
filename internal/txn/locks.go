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

type lockState struct {
	holder uint64
	held   bool
	queue  []*waiter
}

// LockTable grants exclusive row locks to transactions.
type LockTable struct {
	mu      sync.Mutex
	locks   map[string]*lockState
	held    map[uint64]map[string]struct{}
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
	return &LockTable{
		locks:   make(map[string]*lockState),
		held:    make(map[uint64]map[string]struct{}),
		timeout: timeout,
	}
}

// Acquire takes the exclusive lock on key for txn, blocking behind earlier
// holders. Re-acquiring a held lock is a no-op. A wait longer than the
// table timeout fails with ErrLockTimeout and the caller must abort.
func (lt *LockTable) Acquire(txn uint64, key string) error {
	lt.mu.Lock()
	if lt.closed {
		lt.mu.Unlock()
		return ErrLockClosed
	}
	ls := lt.locks[key]
	if ls == nil {
		ls = &lockState{}
		lt.locks[key] = ls
	}
	if !ls.held {
		ls.held = true
		ls.holder = txn
		lt.noteHeldLocked(txn, key)
		lt.mu.Unlock()
		return nil
	}
	if ls.holder == txn {
		lt.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, ch: make(chan struct{})}
	ls.queue = append(ls.queue, w)
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
		for i, q := range ls.queue {
			if q == w {
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				break
			}
		}
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
	ls := lt.locks[key]
	if ls == nil {
		ls = &lockState{}
		lt.locks[key] = ls
	}
	if ls.held && ls.holder != txn {
		return false
	}
	ls.held = true
	ls.holder = txn
	lt.noteHeldLocked(txn, key)
	return true
}

func (lt *LockTable) noteHeldLocked(txn uint64, key string) {
	set := lt.held[txn]
	if set == nil {
		set = make(map[string]struct{})
		lt.held[txn] = set
	}
	set[key] = struct{}{}
}

// ReleaseAll drops every lock txn holds, granting each to its next waiter
// in FIFO order.
func (lt *LockTable) ReleaseAll(txn uint64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for key := range lt.held[txn] {
		lt.releaseOneLocked(txn, key)
	}
	delete(lt.held, txn)
}

func (lt *LockTable) releaseOneLocked(txn uint64, key string) {
	ls := lt.locks[key]
	if ls == nil || !ls.held || ls.holder != txn {
		return
	}
	if len(ls.queue) == 0 {
		delete(lt.locks, key)
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next.txn
	lt.noteHeldLocked(next.txn, key)
	close(next.ch)
}

// Holder reports the current holder of key, if locked.
func (lt *LockTable) Holder(key string) (uint64, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	ls := lt.locks[key]
	if ls == nil || !ls.held {
		return 0, false
	}
	return ls.holder, true
}

// HeldBy returns the number of locks txn currently holds.
func (lt *LockTable) HeldBy(txn uint64) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.held[txn])
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
	for _, ls := range lt.locks {
		for _, w := range ls.queue {
			close(w.ch)
		}
		ls.queue = nil
	}
}

// IDs hands out transaction identifiers.
type IDs struct{ next atomic.Uint64 }

// Next returns a fresh transaction id (starting at 1).
func (g *IDs) Next() uint64 { return g.next.Add(1) }
