package storage

import (
	"slices"
	"sort"

	"aurora/internal/core"
)

// recordLog is the retained log of one segment: the records gossip serves,
// snapshots carry and coalescing collects, as one slice sorted by ascending
// LSN with no duplicates. Records almost always arrive in LSN order and are
// collected as a prefix, so filing is an append and GC slides the survivors
// down inside the backing array; only an out-of-order or duplicate arrival
// (a gossip fill, a redelivery) pays a binary search.
//
// It is guarded by the owning node's mu, and nothing outside that lock may
// hold a slice of it — a GC, a truncation or an insert moves the elements —
// so pulls (after) copy the pointers out.
type recordLog []*core.Record

// highest returns the LSN of the last retained record, ZeroLSN when empty.
func (l recordLog) highest() core.LSN {
	if len(l) == 0 {
		return core.ZeroLSN
	}
	return l[len(l)-1].LSN
}

// search returns the index of the first record with an LSN above lsn.
func (l recordLog) search(lsn core.LSN) int {
	return sort.Search(len(l), func(i int) bool { return l[i].LSN > lsn })
}

// has reports whether a record with this LSN is retained.
func (l recordLog) has(lsn core.LSN) bool {
	if lsn > l.highest() {
		return false
	}
	i := l.search(lsn)
	return i > 0 && l[i-1].LSN == lsn
}

// insert files rec at its sorted position; the caller has ruled out a
// duplicate (has).
func (l *recordLog) insert(rec *core.Record) {
	if rec.LSN > l.highest() {
		*l = append(*l, rec)
		return
	}
	*l = slices.Insert(*l, l.search(rec.LSN), rec)
}

// dropPrefix collects the first k records. The survivors slide down so later
// appends reuse the backing array, and the vacated tail is cleared (by
// slices.Delete) so collected records are not pinned.
func (l *recordLog) dropPrefix(k int) {
	*l = slices.Delete(*l, 0, k)
}

// removeRange cuts the records in (from, to] out of the log — a truncation's
// annulled range — and returns them in a slice of the caller's own.
func (l *recordLog) removeRange(from, to core.LSN) []*core.Record {
	i, j := l.search(from), l.search(to)
	if i >= j {
		return nil
	}
	removed := slices.Clone((*l)[i:j])
	*l = slices.Delete(*l, i, j)
	return removed
}

// after returns copies of the pointers to up to limit records above lsn, in
// ascending LSN order.
func (l recordLog) after(lsn core.LSN, limit int) []*core.Record {
	i := l.search(lsn)
	m := min(len(l)-i, limit)
	if m <= 0 {
		return nil
	}
	return slices.Clone(l[i : i+m])
}
