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
	"sync/atomic"

	"aurora/internal/core"
	"aurora/internal/quorum"
)

// durableWindow is the writer's one piece of durability state (§4.1–§4.2.2):
// the shipped groups that are not yet durable, in LSN order, and what their
// retirement has published so far — the VDL and, per protection group, the
// highest record LSN at or below it. It is the one owner of the VDL: readers
// load it (VDL), the few callers that wait for it wait here (waitFor), and
// the allocator's LAL bound is advanced from what resolve returns.
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
// quorum — so nothing at or above the pin can ever retire: all of it fails at
// once, and its waiters are released once nothing below the pin is pending
// (sooner, a replica could seed below a group that still retires). The call
// that settles a group returns it; the caller completes it (Client.complete).
//
// vdl doubles as the contiguous frontier: every LSN at or below it belongs
// to a retired group, and because groups end on a CPL it is always one. It is
// stored only under mu, inside resolve's critical section right after the
// tails of the groups it retires, and loaded anywhere without the lock.
type durableWindow struct {
	mu        sync.Mutex
	vdl       atomic.Uint64 // a core.LSN
	pending   []*GroupWrite // registered, not settled; ascending by first
	tails     map[core.PGID]core.LSN
	waiters   []vdlWaiter // WaitDurable and drainWrites callers, unsorted
	pinned    core.LSN    // first LSN of the lowest failed group; 0 while none failed
	abandoned bool
}

// vdlWaiter is a caller waiting for the VDL to reach target. Commits never
// wait here — a commit is completed by the goroutine that settles its group —
// so the waiters are the occasional ones and sit in an unsorted slice.
type vdlWaiter struct {
	target core.LSN
	ch     chan struct{}
}

// errBehindFailed is the outcome of a group that sits behind a failed one.
var errBehindFailed = fmt.Errorf("volume: an earlier write lost its quorum: %w", quorum.ErrQuorumImpossible)

// newDurableWindow starts a window with everything at or below start already
// durable (recovery seeds start with the top of the LSN range it annulled and
// tails with the chain tails it found; both are zero for a fresh volume).
func newDurableWindow(start core.LSN, tails map[core.PGID]core.LSN) *durableWindow {
	w := &durableWindow{tails: make(map[core.PGID]core.LSN, len(tails))}
	w.vdl.Store(uint64(start))
	for pg, lsn := range tails {
		w.tails[pg] = lsn
	}
	return w
}

// VDL returns the volume durable LSN: the highest CPL every record at or
// below which is on its write quorum.
func (w *durableWindow) VDL() core.LSN { return core.LSN(w.vdl.Load()) }

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
// or g and everything behind it. Retiring publishes, in one critical section,
// the retired groups' per-PG tails and then the VDL, and releases the waiters
// the new VDL satisfies; the caller advances the allocator's bound to the
// returned VDL and only then completes the settled groups. The order of tails
// and VDL is the read path's contract: a reader takes the VDL as its read
// point and durableTail(pg) as the completeness it demands, so VDL >= x must
// already imply that the tail covers every framed record of pg at or below x
// — published the other way round, a read at a just-acked CPL could demand a
// stale tail and be served the previous version. Both are stored here and
// nowhere else, so the order holds by construction. quorate reports that this
// was the last of g's own quorums: what g still waits for, if anything, is
// the groups ahead of it.
func (w *durableWindow) resolve(g *GroupWrite, failed bool) (vdl core.LSN, settled *GroupWrite, quorate bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	vdl = w.VDL()
	g.unresolved--
	if g.settled {
		return vdl, nil, false // a straggler of a group that already failed
	}
	if failed {
		if w.pinned == 0 || g.first < w.pinned {
			w.pinned = g.first
			w.release()
		}
		i := slices.Index(w.pending, g)
		behind := w.settle(i+1, len(w.pending), errBehindFailed)
		settled = w.settle(i, i+1, quorum.ErrQuorumImpossible)
		settled.next = behind
		return vdl, settled, false
	}
	n := 0
	for ; n < len(w.pending); n++ {
		h := w.pending[n]
		if h.unresolved > 0 || h.first != vdl+1 {
			break
		}
		for i := range h.batches {
			if b := &h.batches[i]; b.last > w.tails[b.pg] {
				w.tails[b.pg] = b.last
			}
		}
		vdl = h.last
	}
	if n > 0 {
		w.vdl.Store(uint64(vdl))
		w.release()
	}
	return vdl, w.settle(0, n, nil), g.unresolved == 0
}

// waitFor returns a channel that is closed once the wait for target is over
// (at once if it already is). A caller released by a pin or by abandon finds
// the VDL short of its target and must not treat the release as durability.
func (w *durableWindow) waitFor(target core.LSN) <-chan struct{} {
	ch := make(chan struct{})
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waiters = append(w.waiters, vdlWaiter{target: target, ch: ch})
	w.release()
	return ch
}

// release closes and drops the waiters whose wait is over: the VDL reached the
// target or can no longer move (every group below the pin has settled, so the
// frontier stands just under it), or the window is abandoned.
func (w *durableWindow) release() {
	kept := w.waiters[:0]
	for _, wt := range w.waiters {
		if wt.target <= w.VDL() || w.pinned != 0 && w.VDL()+1 >= w.pinned || w.abandoned {
			close(wt.ch)
		} else {
			kept = append(kept, wt)
		}
	}
	clear(w.waiters[len(kept):]) // drop the channel references
	w.waiters = kept
}

// abandon settles everything still pending as abandoned, releases every
// waiter and refuses every later registration: the client is going away.
func (w *durableWindow) abandon() *GroupWrite {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.abandoned = true
	w.release()
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

// readRegistry tracks the writer's outstanding read points: page reads,
// transaction read views, and the view each attached read replica may still
// serve. It is the one registry per writer. Its minimum is the volume's MRPL:
// the low-water mark below which no future read can be issued, which the
// writer gossips to storage nodes so they can coalesce and garbage collect
// (§4.2.3). A pin lives in the registry of the writer it was taken from, so
// it ends with that writer: a recovered writer starts with none.
type readRegistry struct {
	win    *durableWindow
	mu     sync.Mutex
	next   readToken
	points map[readToken]core.LSN
	floor  core.LSN // monotonic published low-water mark
}

func newReadRegistry(win *durableWindow) *readRegistry {
	return &readRegistry{win: win, points: make(map[readToken]core.LSN), floor: win.VDL()}
}

// readToken names one registered read point, for advance and release.
type readToken int64

// register pins the current VDL as a read point until release(token) and
// returns it. The VDL is loaded under the registry's lock, so the pin is never
// below a low-water mark already published: lowWaterMark loaded its VDL
// before taking the lock, and the VDL only grows.
func (r *readRegistry) register() (core.LSN, readToken) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.win.VDL()
	tok := r.next
	r.next++
	r.points[tok] = p
	return p, tok
}

// advance moves a registered read point up to p (a replica's applied view
// moving forward). Pins never move down, and a released token stays released.
func (r *readRegistry) advance(tok readToken, p core.LSN) {
	r.mu.Lock()
	if cur, ok := r.points[tok]; ok && p > cur {
		r.points[tok] = p
	}
	r.mu.Unlock()
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
