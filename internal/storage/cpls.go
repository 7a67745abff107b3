package storage

import (
	"cmp"
	"math"
	"slices"

	"aurora/internal/core"
)

// cplSet is the sorted set of CPL LSNs a segment has seen. It is never
// trimmed — recovery asks every node for its highest CPL at or below the VCL
// it computes (§4.1) — and it gains an entry per commit, so on a busy volume
// it becomes the largest thing a node holds besides its pages, and in a
// fixed-length run it shows as resident memory that grows with throughput.
// LSNs below 2^32, which is every LSN of a simulated volume's first hours,
// are therefore kept in four bytes; the set behaves as one sorted list.
type cplSet struct {
	low  []uint32   // members below 1<<32, ascending
	high []core.LSN // the rest, ascending
}

func (s *cplSet) len() int { return len(s.low) + len(s.high) }

// insert adds lsn to the set (a no-op when it is already a member). CPLs
// almost always arrive in LSN order, so the common case is an append.
func (s *cplSet) insert(lsn core.LSN) {
	if lsn <= math.MaxUint32 {
		s.low = insertSorted(s.low, uint32(lsn))
	} else {
		s.high = insertSorted(s.high, lsn)
	}
}

// floor returns the highest member at or below limit, ZeroLSN if none.
func (s *cplSet) floor(limit core.LSN) core.LSN {
	if limit > math.MaxUint32 {
		if v, ok := floorOf(s.high, limit); ok {
			return v
		}
		limit = math.MaxUint32
	}
	v, _ := floorOf(s.low, uint32(limit))
	return core.LSN(v)
}

// retain drops the members keep rejects.
func (s *cplSet) retain(keep func(core.LSN) bool) {
	s.low = slices.DeleteFunc(s.low, func(l uint32) bool { return !keep(core.LSN(l)) })
	s.high = slices.DeleteFunc(s.high, func(l core.LSN) bool { return !keep(l) })
}

// each visits the members in ascending order.
func (s *cplSet) each(fn func(core.LSN)) {
	for _, l := range s.low {
		fn(core.LSN(l))
	}
	for _, l := range s.high {
		fn(l)
	}
}

func insertSorted[T cmp.Ordered](s []T, v T) []T {
	if n := len(s); n == 0 || s[n-1] < v {
		return append(s, v)
	}
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

func floorOf[T cmp.Ordered](s []T, limit T) (T, bool) {
	i, found := slices.BinarySearch(s, limit)
	if found {
		return limit, true
	}
	if i == 0 {
		var zero T
		return zero, false
	}
	return s[i-1], true
}
