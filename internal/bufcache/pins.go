package bufcache

import (
	"aurora/internal/core"
	"aurora/internal/page"
)

// inlinePins is how many pins a Pins holds before it spills to the heap: a
// point read pins the meta page and one page per tree level.
const inlinePins = 8

// Pins is the set of pages one tree operation holds pinned: every page it
// took from the cache or put there stays until Release. That is the cache's
// one pinning rule (see the package doc): a reader's pages cannot be evicted
// and their frames recycled under it, and a writer's own allocations cannot
// evict a page it is mutating before the new LSN is stamped. A store embeds
// it and adds what a miss costs — the only part that differs between the
// engines and the replica. Not safe for concurrent use.
type Pins struct {
	c      *Cache
	gen    uint64 // the cache generation the pins were taken in
	n      int    // pins held
	inline [inlinePins]core.PageID
	spill  []core.PageID // pins beyond the inline ones
}

// NewPins returns an empty pin set over c.
func (c *Cache) NewPins() Pins { return Pins{c: c} }

// Get returns the cached page, pinned until Release. The bool reports a hit.
func (s *Pins) Get(id core.PageID) (page.Page, bool) {
	p, ok, gen := s.c.pin(id)
	if ok {
		s.add(id, gen)
	}
	return p, ok
}

// Put inserts p (the cache owns it from here on, see Cache.Put) and returns
// the cached image, pinned until Release.
func (s *Pins) Put(id core.PageID, p page.Page) page.Page {
	p, gen := s.c.put(id, p)
	s.add(id, gen)
	return p
}

// Fill serves a miss: read fills a frame — an evicted page's, or a new one
// while nothing has been evicted — whose every byte it must write, and the
// page is cached and returned pinned until Release. A frame read refuses goes
// back to the free list.
func (s *Pins) Fill(id core.PageID, read func(frame page.Page) error) (page.Page, error) {
	p := s.c.frame()
	if err := read(p); err != nil {
		s.c.mu.Lock()
		s.c.recycleLocked(p)
		s.c.mu.Unlock()
		return nil, err
	}
	return s.Put(id, p), nil
}

// FreshPage materializes a brand-new zeroed page image in the cache, in a
// recycled frame (btree.Store).
func (s *Pins) FreshPage(id core.PageID) (page.Page, error) {
	return s.Fill(id, func(p page.Page) error {
		p.Reset(id)
		return nil
	})
}

func (s *Pins) add(id core.PageID, gen uint64) {
	if gen != s.gen {
		// The cache was invalidated since the pins held: their entries, and
		// so the pins, are gone.
		s.n, s.spill, s.gen = 0, s.spill[:0], gen
	}
	if s.n < inlinePins {
		s.inline[s.n] = id
	} else {
		s.spill = append(s.spill, id)
	}
	s.n++
}

// Release drops every pin the set holds.
func (s *Pins) Release() {
	if s.n == 0 {
		return
	}
	s.c.unpinAll(s.gen, s.inline[:min(s.n, inlinePins)], s.spill)
	s.n, s.spill = 0, s.spill[:0]
}
