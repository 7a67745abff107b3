package storage

import (
	"cmp"
	"math"
	"slices"

	"aurora/internal/core"
)

// cplSet is the sorted set of CPL LSNs a segment has seen. It gains an entry
// per commit, and the only question ever put to it is recovery's — the
// highest CPL at or below the VCL it computes (§4.1) — whose limit never lies
// below the node's GC tail (VCL ≥ VDL ≥ PGMRPL ≥ GC tail). So garbage
// collection trims it (trim): below the tail only the highest member stays,
// answering for every one dropped, and the set holds what the retained log
// spans rather than every commit ever made — untrimmed it was the largest
// thing a node held besides its pages, in every full backup image and in
// resident memory that grew with throughput. LSNs below 2^32, which is every
// LSN of a simulated volume's first hours, are kept in four bytes; the set
// behaves as one sorted list.
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

// trim drops every member below floor(limit) and keeps that one, so the set
// answers floor for any limit at or above limit exactly as before. The
// survivors slide down inside the backing arrays.
func (s *cplSet) trim(limit core.LSN) {
	keep := s.floor(limit)
	if keep <= math.MaxUint32 {
		i, _ := slices.BinarySearch(s.low, uint32(keep))
		s.low = slices.Delete(s.low, 0, i)
		return
	}
	s.low = s.low[:0]
	i, _ := slices.BinarySearch(s.high, keep)
	s.high = slices.Delete(s.high, 0, i)
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
