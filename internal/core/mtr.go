package core

import (
	"context"
	"errors"
	"sync"
)

// MTR is a mini-transaction: an ordered group of contiguous log records
// that must be applied atomically (§4.1). The engine builds one MTR per
// atomic structural operation (e.g. a B+-tree split/merge) or per row
// mutation; the Framer stamps the final record as a CPL.
type MTR struct {
	Txn     uint64
	Records []Record // LSN/PrevLSN/Flags unset until framed
}

// AddDelta appends a page-delta record to the MTR.
func (m *MTR) AddDelta(pg PGID, page PageID, offset uint32, data []byte) {
	m.Records = append(m.Records, Record{
		Type: RecPageDelta, PG: pg, Page: page, Txn: m.Txn,
		Offset: offset, Data: data,
	})
}

// AddInit appends a full-page-image record to the MTR.
func (m *MTR) AddInit(pg PGID, page PageID, image []byte) {
	m.Records = append(m.Records, Record{
		Type: RecPageInit, PG: pg, Page: page, Txn: m.Txn, Data: image,
	})
}

// AddMeta appends a metadata record (begin/commit/abort) addressed to pg.
// Metadata records participate in the PG's backlink chain like any other
// record so completeness tracking covers them.
func (m *MTR) AddMeta(t RecordType, pg PGID) {
	m.Records = append(m.Records, Record{Type: t, PG: pg, Txn: m.Txn})
}

// Empty reports whether the MTR holds no records.
func (m *MTR) Empty() bool { return len(m.Records) == 0 }

// LastLSNFor returns the highest LSN this MTR assigned to records of the
// given page (ZeroLSN if none, or if the MTR has not been framed yet). The
// engine stamps cached page LSNs with it after framing.
func (m *MTR) LastLSNFor(id PageID) LSN {
	var last LSN
	for i := range m.Records {
		r := &m.Records[i]
		if r.PageRecord() && r.Page == id && r.LSN > last {
			last = r.LSN
		}
	}
	return last
}

// ErrEmptyMTR is returned when framing an MTR with no records.
var ErrEmptyMTR = errors.New("core: cannot frame empty mini-transaction")

// Framer serialises mini-transactions into the single ordered LSN domain:
// it allocates consecutive LSNs for the MTR's records, threads the per-PG
// backlink chains, and tags the final record as a CPL. Framing is atomic
// with respect to concurrent MTRs so that per-PG chain order always matches
// LSN order.
type Framer struct {
	mu    sync.Mutex
	alloc *Allocator
	last  map[PGID]LSN // last LSN emitted per protection group

	// Placement: route re-stamps each page record's PG inside the framing
	// critical section, and epoch stamps the current geometry epoch onto
	// every batch. Routing MUST happen at frame time, not when the MTR was
	// built: an MTR can sit in the commit pipeline's queue across a
	// geometry cutover, and a record shipped to the stripe's old PG after
	// the flip would be a lost write. Records carrying FlagPlaced keep
	// their producer-chosen PG (stripe-copy records of a pending cutover).
	// nil route/epoch means fixed placement (pre-geometry callers, tests).
	route func(PageID) PGID
	epoch func() uint64

	// vol is stamped onto every framed record and batch (0 = legacy
	// single-tenant volume).
	vol VolumeID

	// Reusable framing state, all guarded by mu. pool recycles arenas and
	// group shells; pgs is dense per-PG accumulator scratch indexed by PGID,
	// invalidated per FrameGroup call by a generation stamp instead of
	// clearing; touched lists the PGs of the current group in first-touch
	// order.
	pool    framePool
	pgs     []pgAccum
	touched []PGID
	gen     uint64
}

// pgAccum accumulates one PG's batch layout across the two framing passes.
type pgAccum struct {
	gen         uint64
	recs        int
	bytes       int // body bytes
	first, last LSN
	hdrOff      int // arena offset of the batch header
	bodyOff     int // arena write cursor during pass B
	bodyStart   int
}

// SetPlacement installs the frame-time router and geometry-epoch source.
func (f *Framer) SetPlacement(route func(PageID) PGID, epoch func() uint64) {
	f.mu.Lock()
	f.route = route
	f.epoch = epoch
	f.mu.Unlock()
}

// SetVolume installs the tenant volume the framer stamps onto every record
// and batch it frames (replacing the old post-frame re-stamping pass).
func (f *Framer) SetVolume(vol VolumeID) {
	f.mu.Lock()
	f.vol = vol
	f.mu.Unlock()
}

// NewFramer returns a framer drawing LSNs from alloc. lastPerPG seeds the
// backlink chains (nil for a fresh volume); recovery passes the chain tails
// discovered from storage.
func NewFramer(alloc *Allocator, lastPerPG map[PGID]LSN) *Framer {
	last := make(map[PGID]LSN, len(lastPerPG))
	for pg, lsn := range lastPerPG {
		last[pg] = lsn
	}
	return &Framer{alloc: alloc, last: last}
}

// FrameGroup frames a group of MTRs through one allocation/chaining
// critical section: a single Alloc covers every record of the group, and
// the per-PG backlink chains are threaded across all of them in order. The
// last record of each MTR is tagged as a CPL, so every member remains an
// individually trackable consistency point. This is the group-commit
// primitive: N concurrent committers pay one framing critical section
// instead of N (§4.2.2's "no synchronous points" taken one step further).
//
// The group's records are encoded straight into a pooled arena — per-PG
// batches merged across the whole group (chain order equals LSN order
// within each batch), one contiguous wire image per batch, one CRC-32C
// pass per batch — and returned as a refcounted *FramedGroup. The caller
// owns the creator reference and must Release it; see arena.go for the
// byte-ownership contract. Framing allocates nothing in steady state: the
// arena, group shell, and per-PG scratch are all reused across calls.
//
// The MTRs' records are stamped in place (LSN, PrevLSN, CPL flag, volume,
// routed PG), so callers can read framed LSNs back off the MTRs they
// passed in; record LSNs ascend in frame order within each PG.
func (f *Framer) FrameGroup(ctx context.Context, ms []*MTR) (*FramedGroup, error) {
	total := 0
	for _, m := range ms {
		if m.Empty() {
			return nil, ErrEmptyMTR
		}
		total += len(m.Records)
	}
	if total == 0 {
		return nil, ErrEmptyMTR
	}
	// LSN order must match chain order, so allocation and chaining happen
	// under one lock — but that lock is held once per *group*, and only the
	// dedicated framer stage ever blocks here on LAL back-pressure. The
	// encode passes stay under the same lock because they use the framer's
	// reusable scratch (the rebalancer can frame concurrently with the
	// commit pipeline's framer stage).
	f.mu.Lock()
	first, err := f.alloc.Alloc(ctx, total)
	if err != nil {
		f.mu.Unlock()
		return nil, err
	}
	var epoch uint64
	if f.epoch != nil {
		epoch = f.epoch()
	}
	g := f.pool.getGroup()
	f.gen++
	f.touched = f.touched[:0]
	lsn := first
	// Pass A: route, stamp, and accumulate per-PG record counts and body
	// sizes. The generation stamp makes per-PG scratch reuse O(touched)
	// instead of O(all PGs ever seen).
	for _, m := range ms {
		n := len(m.Records)
		for i := range m.Records {
			r := &m.Records[i]
			if f.route != nil && r.PageRecord() && r.Flags&FlagPlaced == 0 {
				r.PG = f.route(r.Page)
			}
			r.LSN = lsn
			lsn++
			r.PrevLSN = f.last[r.PG]
			f.last[r.PG] = r.LSN
			if i == n-1 {
				r.Flags |= FlagCPL
			}
			r.Vol = f.vol
			if int(r.PG) >= len(f.pgs) {
				f.pgs = append(f.pgs, make([]pgAccum, int(r.PG)+1-len(f.pgs))...)
			}
			acc := &f.pgs[r.PG]
			if acc.gen != f.gen {
				*acc = pgAccum{gen: f.gen, first: r.LSN}
				f.touched = append(f.touched, r.PG)
			}
			acc.recs++
			acc.bytes += r.BodySize()
			acc.last = r.LSN
		}
		g.CPLs = append(g.CPLs, lsn-1)
	}
	// Layout: carve one contiguous header+body region per touched PG.
	off := 0
	for _, pg := range f.touched {
		acc := &f.pgs[pg]
		acc.hdrOff = off
		off += batchHeaderSize
		acc.bodyStart = off
		acc.bodyOff = off
		off += acc.bytes
	}
	g.arena = f.pool.getArena(off)
	buf := g.arena.b[:off]
	// Pass B: encode record bodies into their PG regions in LSN order.
	for _, m := range ms {
		for i := range m.Records {
			r := &m.Records[i]
			acc := &f.pgs[r.PG]
			acc.bodyOff += r.PutBody(buf[acc.bodyOff:])
		}
	}
	// Headers last: one batched CRC pass over each contiguous body.
	for _, pg := range f.touched {
		acc := &f.pgs[pg]
		end := acc.bodyStart + acc.bytes
		body := buf[acc.bodyStart:end]
		putBatchHeader(buf[acc.hdrOff:], pg, acc.recs, epoch, f.vol, acc.first, acc.last, body)
		g.Batches = append(g.Batches, FramedBatch{
			PG: pg, Vol: f.vol, Epoch: epoch,
			First: acc.first, Last: acc.last, Records: acc.recs,
			Wire: buf[acc.hdrOff:end:end],
		})
	}
	f.mu.Unlock()
	return g, nil
}

// ChainTail returns the last LSN framed for pg (ZeroLSN if none).
func (f *Framer) ChainTail(pg PGID) LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last[pg]
}
