// Package volume implements the client side of Aurora's storage protocol:
// the storage volume as seen by the single writer instance. It maps pages
// onto protection groups, ships framed log batches to all six replicas of
// each PG, advances the Volume Durable LSN as write quorums are
// acknowledged, routes reads to individual segments known to be complete
// (no read quorums in the normal path), maintains the protection-group
// minimum read point for storage-side GC, and performs crash recovery with
// epoch-versioned truncation (§4).
package volume

import (
	"fmt"
	"slices"
	"sync"

	"aurora/internal/core"
	"aurora/internal/quorum"
)

// durableWindow is the writer's one piece of durability state (§4.1–§4.2.2):
// the shipped groups that are not yet durable, in LSN order, and what their
// retirement has published so far — the VDL and, per protection group, the
// highest record LSN at or below it.
//
// An entry is the GroupWrite itself. A group owns one contiguous LSN range
// that ends on its last member's CPL, and it carries, per batch, the PG, the
// batch's highest LSN and the quorum state of exactly those records; a quorum
// therefore vouches for its own batch and nothing else. The head group
// retires once every one of its batches has reached quorum and its range
// continues the VDL. Concurrent shippers (WriteMTR callers, the rebalancer)
// register after leaving the framer's critical section, so registration
// order can invert LSN order: insertion is sorted, and retirement checks
// contiguity instead of trusting the head.
//
// Every registered group leaves the window exactly once, settled with one of
// three outcomes: durable (it retired, which is VDL >= its last LSN), failed
// (a batch of it, or of a group ahead of it, can no longer reach its quorum)
// or abandoned (the client went away first). A failed batch pins the window
// at its group for good — the VDL must never pass a record that is on no
// quorum — so nothing at or above the pin can ever retire, and all of it is
// failed at once rather than left to wait. The call that settles a group
// returns it; the caller completes it (Client.complete).
//
// vdl doubles as the contiguous frontier: every LSN at or below it belongs
// to a retired group, and because groups end on a CPL it is always one.
type durableWindow struct {
	mu        sync.Mutex
	vdl       core.LSN
	pending   []*GroupWrite // registered, not settled; ascending by first
	tails     map[core.PGID]core.LSN
	pinned    core.LSN // first LSN of the lowest failed group; 0 while none failed
	abandoned bool
}

// errBehindFailed is the outcome of a group that sits behind a failed one.
var errBehindFailed = fmt.Errorf("volume: an earlier write lost its quorum: %w", quorum.ErrQuorumImpossible)

// newDurableWindow starts a window with everything at or below start already
// durable (recovery seeds start with the top of the LSN range it annulled and
// tails with the chain tails it found; both are zero for a fresh volume).
func newDurableWindow(start core.LSN, tails map[core.PGID]core.LSN) *durableWindow {
	w := &durableWindow{vdl: start, tails: make(map[core.PGID]core.LSN, len(tails))}
	for pg, lsn := range tails {
		w.tails[pg] = lsn
	}
	return w
}

// register enters a group about to ship, keeping pending sorted by LSN
// (groups arrive almost in order, so the scan from the back is short), or
// refuses one that can no longer become durable, with what would be its outcome.
func (w *durableWindow) register(g *GroupWrite) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abandoned {
		return ErrClosed
	}
	if w.pinned != 0 && g.first > w.pinned {
		return errBehindFailed
	}
	i := len(w.pending)
	for i > 0 && w.pending[i-1].first > g.first {
		i--
	}
	w.pending = slices.Insert(w.pending, i, g)
	return nil
}

// resolve records that one batch of g reached its quorum, or (failed) never
// can, and settles every group this decides: the head groups it makes durable,
// or g and everything behind it. Retiring publishes the group's per-PG tails
// here, under the lock; the caller publishes the returned VDL afterwards, and
// only then completes the settled groups. That order is the read path's
// contract: a reader takes the VDL as its read point and durableTail(pg) as
// the completeness it demands, so VDL >= x must already imply that the tail
// covers every framed record of pg at or below x — published the other way
// round, a read at a just-acked CPL could demand a stale tail and be served
// the previous version. quorate reports that this was the last of g's own
// quorums: what g still waits for, if anything, is the groups ahead of it.
func (w *durableWindow) resolve(g *GroupWrite, failed bool) (vdl core.LSN, settled *GroupWrite, quorate bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	g.unresolved--
	if g.settled {
		return w.vdl, nil, false // a straggler of a group that already failed
	}
	if failed {
		if w.pinned == 0 || g.first < w.pinned {
			w.pinned = g.first
		}
		i := slices.Index(w.pending, g)
		behind := w.settle(i+1, len(w.pending), errBehindFailed)
		settled = w.settle(i, i+1, quorum.ErrQuorumImpossible)
		settled.next = behind
		return w.vdl, settled, false
	}
	n := 0
	for ; n < len(w.pending); n++ {
		h := w.pending[n]
		if h.unresolved > 0 || h.first != w.vdl+1 {
			break
		}
		for i := range h.batches {
			if b := &h.batches[i]; b.last > w.tails[b.pg] {
				w.tails[b.pg] = b.last
			}
		}
		w.vdl = h.last
	}
	return w.vdl, w.settle(0, n, nil), g.unresolved == 0
}

// abandon settles everything still pending as abandoned and refuses every
// later registration: the client is going away.
func (w *durableWindow) abandon() *GroupWrite {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.abandoned = true
	return w.settle(0, len(w.pending), ErrClosed)
}

// settle removes pending[i:j] from the window with outcome err and returns
// them chained through next, in LSN order. Delete slides the rest down and
// zeroes the vacated slots: the backing array keeps its capacity and pins no
// settled group.
func (w *durableWindow) settle(i, j int, err error) *GroupWrite {
	var head *GroupWrite
	for k := j - 1; k >= i; k-- {
		h := w.pending[k]
		h.settled, h.err = true, err
		h.next, head = head, h
	}
	w.pending = slices.Delete(w.pending, i, j)
	return head
}

// durableTail returns the highest record LSN of pg at or below the VDL. This
// is the completeness the writer requires of a segment before routing a read
// to it: a segment whose SCL has reached the PG's durable tail holds every
// durable record of that PG, even when the volume-wide VDL (the read point)
// is far ahead because other PGs have been busier (§4.2.3).
func (w *durableWindow) durableTail(pg core.PGID) core.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tails[pg]
}

// backlog returns the number of shipped groups that are not yet settled.
func (w *durableWindow) backlog() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// readRegistry tracks outstanding read points (page reads and transaction
// read views). Its minimum is the volume's MRPL: the low-water mark below
// which no future read can be issued, which the writer gossips to storage
// nodes so they can coalesce and garbage collect (§4.2.3).
type readRegistry struct {
	mu     sync.Mutex
	next   readToken
	points map[readToken]core.LSN
	floor  core.LSN // monotonic published low-water mark
}

func newReadRegistry(start core.LSN) *readRegistry {
	return &readRegistry{points: make(map[readToken]core.LSN), floor: start}
}

// readToken names one registered read point, for release.
type readToken int64

// register records an outstanding read point until release(token).
func (r *readRegistry) register(p core.LSN) readToken {
	r.mu.Lock()
	tok := r.next
	r.next++
	r.points[tok] = p
	r.mu.Unlock()
	return tok
}

// release drops a read point register returned.
func (r *readRegistry) release(tok readToken) {
	r.mu.Lock()
	delete(r.points, tok)
	r.mu.Unlock()
}

// lowWaterMark returns the MRPL given the current VDL: the minimum
// outstanding read point, or the VDL when no reads are outstanding. The
// result is monotonic.
func (r *readRegistry) lowWaterMark(vdl core.LSN) core.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := vdl
	for _, p := range r.points {
		if p < m {
			m = p
		}
	}
	if m > r.floor {
		r.floor = m
	}
	return r.floor
}
