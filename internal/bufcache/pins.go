package bufcache

import (
	"aurora/internal/core"
	"aurora/internal/page"
)

// Pins is the set of pages one tree operation holds pinned: every page it
// took from the cache or put there stays until Release, so the operation's
// own allocations cannot evict a page it is mutating before the new LSN is
// stamped. A store embeds it and adds what a miss costs — the only part that
// differs between the engines. Not safe for concurrent use.
type Pins struct {
	c   *Cache
	ids []core.PageID
}

// NewPins returns an empty pin set over c.
func (c *Cache) NewPins() Pins { return Pins{c: c} }

// Get returns the cached page, pinned until Release. The bool reports a hit.
func (s *Pins) Get(id core.PageID) (page.Page, bool) {
	p, ok := s.c.Get(id)
	if ok {
		s.ids = append(s.ids, id)
	}
	return p, ok
}

// Put inserts p and returns the cached image, pinned until Release.
func (s *Pins) Put(id core.PageID, p page.Page) page.Page {
	s.ids = append(s.ids, id)
	return s.c.Put(id, p)
}

// FreshPage materializes a brand-new zeroed page image in the cache
// (btree.Store).
func (s *Pins) FreshPage(id core.PageID) (page.Page, error) {
	return s.Put(id, page.New(id)), nil
}

// Release drops every pin the set holds.
func (s *Pins) Release() {
	for _, id := range s.ids {
		s.c.Unpin(id)
	}
	s.ids = s.ids[:0]
}
