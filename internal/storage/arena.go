package storage

import "aurora/internal/core"

// The chunk sizes of a node's record arena. Larger chunks mean fewer refills
// but keep more memory alive behind the last unfolded record; smaller ones
// abandon more tail bytes per chunk. EXPERIMENTS.md has the trial that chose
// these against the benchmark's peak RSS and allocated bytes.
const (
	arenaBodyChunk = 16 << 10 // bytes of record data per body chunk
	arenaSlabChunk = 128      // records per slab chunk
	// arenaOwnData: a record whose data is longer than this gets an
	// allocation of its own rather than a new chunk, so that no chunk
	// abandons more than this many bytes at its tail.
	arenaOwnData = arenaBodyChunk / 4
)

// recordArena is where a node's filed records live, whatever brought them —
// the foreground batch, a gossip pull, a scrub repair, a backup delta or a
// snapshot. Each record is a slot of a slab chunk and its Data a
// capacity-limited sub-slice of a body chunk, copied out of the borrowed
// record it was filed from: nothing a node files aliases a sender's arena, a
// peer's records or a decode buffer, and an append to one record's Data
// cannot reach its neighbour.
//
// Chunks are append-only and never reused. A full one is dropped by the
// arena and freed by the Go collector once the node has let go of the last
// record in it (coalescing GC, a truncation, a wipe, a snapshot load, a
// backup pass that empties the staging list). Records are collected as an
// LSN prefix, so a node's retention beyond its records is the chunks that
// hold its unfolded tail.
type recordArena struct {
	body []byte        // the current body chunk; len is the used prefix
	slab []core.Record // the current slab chunk; len is the used prefix
}

// adopt copies r, Data included, into the arena and returns the copy. r is
// borrowed and not retained.
func (a *recordArena) adopt(r *core.Record) *core.Record {
	if len(a.slab) == cap(a.slab) {
		a.slab = make([]core.Record, 0, arenaSlabChunk)
	}
	a.slab = append(a.slab, *r)
	rec := &a.slab[len(a.slab)-1]
	rec.Data = a.copyData(r.Data)
	return rec
}

// copyData returns a copy of b whose capacity ends where its length does.
func (a *recordArena) copyData(b []byte) []byte {
	n := len(b)
	switch {
	case n == 0:
		return nil
	case n > arenaOwnData:
		return append(make([]byte, 0, n), b...)
	case cap(a.body)-len(a.body) < n:
		a.body = make([]byte, 0, arenaBodyChunk)
	}
	off := len(a.body)
	a.body = append(a.body, b...)
	return a.body[off:len(a.body):len(a.body)]
}
