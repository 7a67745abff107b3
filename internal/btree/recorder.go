// Package btree implements the access method of the database engine: a
// B+-tree over fixed-size pages, standing in for InnoDB's clustered index.
// The tree never writes pages anywhere — it mutates cached page images and
// records every structural or row change as redo log records (byte deltas
// between before- and after-images), grouped into mini-transactions by the
// caller. Splits and merges of tree pages are exactly the "groups of
// operations that must be executed atomically" that InnoDB's MTRs model
// (§5).
package btree

import (
	"sync"

	"aurora/internal/core"
	"aurora/internal/page"
)

// diffGap is the merge distance for delta spans: nearby edits within a page
// collapse into one record.
const diffGap = 24

// Recorder captures the before-images of every page an operation touches
// and turns the accumulated changes into redo records for one MTR.
//
// It has two halves with different lifetimes. The touched list is small and
// lives as long as the recorder: the commit pipeline stamps page LSNs from it
// after the caller's latch is released. The before-images are page-sized and
// are only ever read under that latch (AppendRecords, Rollback), so they come
// from a process-wide pool and go back to it on the recorder's last call —
// StampLSNs on a commit that succeeded, Rollback on one that did not.
type Recorder struct {
	touched []touchedPage
	inline  [4]touchedPage // backs touched: most commits touch a leaf or two and the meta page
	img     *beforeImages  // nil until the first Touch and again once handed back
}

type touchedPage struct {
	id core.PageID
	p  page.Page
}

// beforeImages is the pooled, latch-scoped half of a Recorder. The buffers
// stay with it from one recorder to the next.
type beforeImages struct {
	idx  map[core.PageID]int       // page id -> position in touched and bufs
	bufs []*[page.PayloadSize]byte // bufs[i] holds the payload of touched[i] as first touched
}

var imagesPool = sync.Pool{New: func() any { return &beforeImages{idx: make(map[core.PageID]int)} }}

// maxPooledImages keeps what a bulk transaction grew out of the pool: its
// buffers would sit idle, and clearing a map costs time in proportion to the
// size it once had.
const maxPooledImages = 64

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.touched = r.inline[:0]
	return r
}

// Touch registers a page about to be mutated, saving its before-image on
// first touch. It must be called before the first mutation of each page.
func (r *Recorder) Touch(id core.PageID, p page.Page) {
	if r.img == nil {
		r.img = imagesPool.Get().(*beforeImages)
	}
	img := r.img
	if _, ok := img.idx[id]; ok {
		return
	}
	i := len(r.touched)
	if i == len(img.bufs) {
		img.bufs = append(img.bufs, new([page.PayloadSize]byte))
	}
	copy(img.bufs[i][:], p.Payload())
	img.idx[id] = i
	r.touched = append(r.touched, touchedPage{id: id, p: p})
}

// release hands the before-images back to the pool. The touched list stays.
func (r *Recorder) release() {
	img := r.img
	if img == nil {
		return
	}
	r.img = nil
	if len(img.bufs) > maxPooledImages {
		return
	}
	clear(img.idx)
	imagesPool.Put(img)
}

// Touched reports whether any page was modified.
func (r *Recorder) Touched() bool { return len(r.touched) > 0 }

// AppendRecords emits the delta records for every touched page, in touch
// order, into m. pgOf maps pages onto protection groups.
func (r *Recorder) AppendRecords(m *core.MTR, pgOf func(core.PageID) core.PGID) error {
	for i, t := range r.touched {
		recs, err := page.DiffRecords(pgOf(t.id), t.id, m.Txn, r.img.bufs[i][:], t.p.Payload(), diffGap)
		if err != nil {
			return err
		}
		m.Records = append(m.Records, recs...)
	}
	return nil
}

// AppendFullPages emits a full-image record for every touched page instead
// of byte deltas — the "ship whole pages" ablation that quantifies why
// Aurora writes only redo (§3.1: what is written matters as much as how).
func (r *Recorder) AppendFullPages(m *core.MTR, pgOf func(core.PageID) core.PGID) {
	for _, t := range r.touched {
		m.Records = append(m.Records, core.Record{
			Type: core.RecPageInit, PG: pgOf(t.id), Page: t.id, Txn: m.Txn,
			Data: append([]byte(nil), t.p.Payload()...),
		})
	}
}

// StampLSNs stores the final LSN each touched page received into the page
// header, maintaining the engine invariant that a cached page's LSN names
// its latest logged change. lastFor reports the highest LSN assigned to a
// page's records (core.MTR.LastLSNFor). Stamping is the last step of a
// commit, so the before-images go back to the pool here.
func (r *Recorder) StampLSNs(lastFor func(core.PageID) core.LSN) {
	for _, t := range r.touched {
		if lsn := lastFor(t.id); lsn > t.p.LSN() {
			t.p.SetLSN(lsn)
		}
	}
	r.release()
}

// Rollback restores every touched page to its before-image — used when an
// operation fails midway (e.g. a value too large) so the cache never holds
// unlogged garbage.
func (r *Recorder) Rollback() {
	for i, t := range r.touched {
		copy(t.p.Payload(), r.img.bufs[i][:])
	}
	r.Reset()
}

// Reset clears the recorder for reuse.
func (r *Recorder) Reset() {
	r.release()
	clear(r.touched)
	r.touched = r.touched[:0]
}

// TouchedPages returns the ids of the touched pages in touch order.
func (r *Recorder) TouchedPages() []core.PageID {
	ids := make([]core.PageID, len(r.touched))
	for i, t := range r.touched {
		ids[i] = t.id
	}
	return ids
}
