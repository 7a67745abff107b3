package page

import (
	"encoding/binary"
	"math/bits"

	"aurora/internal/core"
)

// Span is one contiguous modified byte range of a page payload.
type Span struct {
	Offset int
	Data   []byte
}

// Diff computes the changed spans between two equal-length payloads,
// merging changes separated by fewer than gap unchanged bytes so that a
// cluster of nearby edits becomes a single compact record. Data slices are
// copies of after.
//
// This is how the engine produces redo records: it mutates the cached page
// image freely and logs the difference between the after-image and the
// before-image (§3.1).
func Diff(before, after []byte, gap int) []Span {
	return diff(before, after, gap, true)
}

// diff is Diff; with own false the spans' Data alias after instead of copying
// it, for a caller that copies the bytes itself.
func diff(before, after []byte, gap int, own bool) []Span {
	if gap < 1 {
		gap = 1
	}
	n := min(len(before), len(after))
	span := func(start, end int) Span {
		data := after[start:end]
		if own {
			data = append([]byte(nil), data...)
		}
		return Span{Offset: start, Data: data}
	}
	var spans []Span
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
		spans = append(spans, span(start, last+1))
	}
	// Length changes (should not occur for fixed pages) are appended.
	if len(after) > len(before) {
		spans = append(spans, span(len(before), len(after)))
	}
	return spans
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

// DiffRecords converts the changed spans of a page payload into redo
// records for the MTR under construction. Each record's Data is copied out of
// after once, by DeltaRecord.
func DiffRecords(pg core.PGID, id core.PageID, txn uint64, before, after []byte, gap int) ([]core.Record, error) {
	spans := diff(before, after, gap, false)
	recs := make([]core.Record, 0, len(spans))
	for _, s := range spans {
		r, err := DeltaRecord(pg, id, txn, s.Offset, s.Data)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}
