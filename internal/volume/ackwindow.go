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
	"sync"

	"aurora/internal/core"
)

// ackWindow tracks which allocated LSNs have reached write quorum and
// derives the VDL: the highest CPL at or below the contiguous acked
// frontier. LSNs are allocated densely by the framer, so the frontier
// advances pointwise.
type ackWindow struct {
	mu       sync.Mutex
	frontier core.LSN // every LSN <= frontier has reached write quorum
	acked    map[core.LSN]struct{}
	cpls     lsnHeap
	vdl      core.LSN
}

// lsnHeap is a typed min-heap of LSNs. It deliberately avoids
// container/heap: the interface methods box every pushed and popped LSN,
// which costs one allocation per CPL on the commit hot path.
type lsnHeap []core.LSN

func (h *lsnHeap) push(x core.LSN) {
	s := append(*h, x)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *lsnHeap) pop() core.LSN {
	s := *h
	n := len(s) - 1
	x := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return x
}

// newAckWindow starts a window with everything at or below start already
// durable (recovery seeds this with the recovered VDL).
func newAckWindow(start core.LSN) *ackWindow {
	return &ackWindow{
		frontier: start,
		acked:    make(map[core.LSN]struct{}),
		vdl:      start,
	}
}

// addCPL registers a framed MTR's consistency point.
func (w *ackWindow) addCPL(lsn core.LSN) {
	w.mu.Lock()
	w.cpls.push(lsn)
	w.mu.Unlock()
}

// addCPLs registers the consistency points of a framed group under one
// lock acquisition.
func (w *ackWindow) addCPLs(lsns []core.LSN) {
	w.mu.Lock()
	for _, lsn := range lsns {
		w.cpls.push(lsn)
	}
	w.mu.Unlock()
}

// markAcked records that the LSN range [first, last] reached write quorum
// and returns the new VDL (which may be unchanged).
func (w *ackWindow) markAcked(first, last core.LSN) core.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	for l := first; l <= last; l++ {
		if l > w.frontier {
			w.acked[l] = struct{}{}
		}
	}
	for {
		if _, ok := w.acked[w.frontier+1]; !ok {
			break
		}
		delete(w.acked, w.frontier+1)
		w.frontier++
	}
	for len(w.cpls) > 0 && w.cpls[0] <= w.frontier {
		w.vdl = w.cpls.pop()
	}
	return w.vdl
}

// skipTo declares the range (frontier, to] abandoned — used when a write
// fails its quorum permanently and the volume is being torn down, so that
// observability does not report phantom outstanding writes.
func (w *ackWindow) skipTo(to core.LSN) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if to > w.frontier {
		w.frontier = to
	}
	for len(w.cpls) > 0 && w.cpls[0] <= w.frontier {
		lsn := w.cpls.pop()
		if lsn > w.vdl {
			w.vdl = lsn
		}
	}
}

// outstanding returns the number of acked-but-not-contiguous LSNs plus
// pending CPLs — a backlog signal.
func (w *ackWindow) outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.acked) + len(w.cpls)
}

// PGTailTracker tracks, per protection group, the highest record LSN that is at
// or below the VDL. This is the completeness the writer requires of a
// segment before routing a read to it: a segment whose SCL has reached the
// PG's durable tail holds every durable record of that PG, even when the
// volume-wide VDL (the read point) is far ahead because other PGs have been
// busier (§4.2.3).
type PGTailTracker struct {
	mu      sync.Mutex
	pending map[core.PGID][]core.LSN // framed record LSNs > last advance
	durable map[core.PGID]core.LSN
}

// NewPGTailTracker seeds the tracker (nil for a fresh volume).
func NewPGTailTracker(seed map[core.PGID]core.LSN) *PGTailTracker {
	d := make(map[core.PGID]core.LSN, len(seed))
	for pg, lsn := range seed {
		d[pg] = lsn
	}
	return &PGTailTracker{pending: make(map[core.PGID][]core.LSN), durable: d}
}

// AddMTR registers the record LSNs of one framed MTR. The framer stamps
// LSN and routed PG onto the MTR's records in place, ascending per PG in
// frame order, so feeding the tracker from the MTR is equivalent to feeding
// it from the per-PG batches — without materializing them.
func (t *PGTailTracker) AddMTR(m *core.MTR) {
	t.mu.Lock()
	t.addMTRLocked(m)
	t.mu.Unlock()
}

// AddMTRs registers a whole framed group under one lock acquisition.
func (t *PGTailTracker) AddMTRs(ms []*core.MTR) {
	t.mu.Lock()
	for _, m := range ms {
		t.addMTRLocked(m)
	}
	t.mu.Unlock()
}

func (t *PGTailTracker) addMTRLocked(m *core.MTR) {
	for i := range m.Records {
		r := &m.Records[i]
		t.pending[r.PG] = append(t.pending[r.PG], r.LSN)
	}
}

// Advance moves durable tails up to the new VDL. It does not rely on the
// pending LSNs being sorted: concurrent framers (parallel WriteMTR callers,
// the rebalancer) register their MTRs after leaving the framer's critical
// section, so registration order can invert LSN order. Every record at or
// below the VDL has been registered by then — it shipped after registering —
// which is all the scan needs.
func (t *PGTailTracker) Advance(vdl core.LSN) {
	t.mu.Lock()
	for pg, lsns := range t.pending {
		// Filter in place: keeping the slice anchored preserves its append
		// capacity, so steady-state refills after each advance do not
		// reallocate.
		keep := lsns[:0]
		tail := t.durable[pg]
		for _, lsn := range lsns {
			if lsn > vdl {
				keep = append(keep, lsn)
			} else if lsn > tail {
				tail = lsn
			}
		}
		if len(keep) < len(lsns) {
			t.durable[pg] = tail
			t.pending[pg] = keep
		}
	}
	t.mu.Unlock()
}

// DurableTail returns the completeness a read of the given PG requires.
func (t *PGTailTracker) DurableTail(pg core.PGID) core.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.durable[pg]
}

// readRegistry tracks outstanding read points (page reads and transaction
// read views). Its minimum is the volume's MRPL: the low-water mark below
// which no future read can be issued, which the writer gossips to storage
// nodes so they can coalesce and garbage collect (§4.2.3).
type readRegistry struct {
	mu     sync.Mutex
	next   int64
	points map[int64]core.LSN
	floor  core.LSN // monotonic published low-water mark
}

func newReadRegistry(start core.LSN) *readRegistry {
	return &readRegistry{points: make(map[int64]core.LSN), floor: start}
}

// register records an outstanding read point and returns a release func.
func (r *readRegistry) register(p core.LSN) func() {
	r.mu.Lock()
	id := r.next
	r.next++
	r.points[id] = p
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.points, id)
		r.mu.Unlock()
	}
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
