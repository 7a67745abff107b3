package page

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"aurora/internal/core"
)

// Span is one contiguous modified byte range of a page payload.
type Span struct {
	Offset int
	Data   []byte
}

// Diff returns AppendSpans' spans with each span's Data copied out of after.
// The engine does not call it: its recorder copies every span of a commit into
// one buffer (AppendDeltas).
func Diff(before, after []byte, gap int) []Span {
	spans := AppendSpans(nil, before, after, gap)
	for i := range spans {
		spans[i].Data = append([]byte(nil), spans[i].Data...)
	}
	return spans
}

// AppendSpans appends to dst the changed spans between two equal-length
// payloads, merging changes separated by fewer than gap unchanged bytes so
// that a cluster of nearby edits becomes a single compact record. Data
// aliases after; the caller copies the bytes it keeps.
//
// This is how the engine produces redo records: it mutates the cached page
// image freely and logs the difference between the after-image and the
// before-image (§3.1).
func AppendSpans(dst []Span, before, after []byte, gap int) []Span {
	if gap < 1 {
		gap = 1
	}
	n := min(len(before), len(after))
	// Most of a touched page is unchanged, so the unchanged runs — before the
	// first span, between spans, after the last — are what there is to cross
	// quickly; a changed run is walked a byte at a time.
	for i := mismatch(before, after, 0, n); i < n; i = mismatch(before, after, i, n) {
		start, last := i, i
		for {
			for last+1 < n && before[last+1] != after[last+1] {
				last++
			}
			// The span goes on if another change follows within gap bytes.
			lim := min(n, last+gap+1)
			if i = mismatch(before, after, last+1, lim); i == lim {
				break
			}
			last = i
		}
		dst = append(dst, Span{Offset: start, Data: after[start : last+1]})
	}
	// Length changes (should not occur for fixed pages) are appended.
	if len(after) > len(before) {
		dst = append(dst, Span{Offset: len(before), Data: after[len(before):]})
	}
	return dst
}

// mismatch returns the first index in [from, to) at which a and b differ, or
// to if there is none, comparing eight bytes at a time.
func mismatch(a, b []byte, from, to int) int {
	i := from
	for ; i+8 <= to; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < to; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return to
}

// AppendDeltas appends a page-delta record of page id to recs for each span,
// its Data copied into the front of buf, and returns recs and what is left
// of buf. buf is sized by the caller to hold every span's bytes, so that the
// records of many pages can share one allocation; each record's Data is
// capacity-limited to its own bytes. A span that leaves the payload is
// refused: corruption is caught where the redo is made, not where a storage
// node applies it.
func AppendDeltas(recs []core.Record, buf []byte, pg core.PGID, id core.PageID, txn uint64, spans []Span) ([]core.Record, []byte, error) {
	for _, s := range spans {
		n := len(s.Data)
		if s.Offset < 0 || s.Offset+n > PayloadSize {
			return recs, buf, fmt.Errorf("%w: [%d,%d)", ErrOutOfBounds, s.Offset, s.Offset+n)
		}
		if len(buf) < n {
			return recs, buf, fmt.Errorf("page: delta buffer short by %d bytes", n-len(buf))
		}
		copy(buf, s.Data)
		recs = append(recs, core.Record{
			Type: core.RecPageDelta, PG: pg, Page: id, Txn: txn,
			Offset: uint32(s.Offset), Data: buf[:n:n],
		})
		buf = buf[n:]
	}
	return recs, buf, nil
}
