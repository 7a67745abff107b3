// Package bufcache implements the database engine's buffer cache. Aurora
// never writes pages out — not on eviction, not for checkpoints, not in the
// background — so eviction is governed by a durability rule instead of a
// write-back: a page may be evicted only if its page LSN (the LSN of the
// latest change applied to it) is at or below the VDL. That guarantees
// (a) every change to the page is hardened in the log, and (b) a cache miss
// can always be served by requesting the page as of the current VDL from
// the storage service (§4.2.3).
//
// The cache owns the memory of the pages it holds, and a miss allocates
// none. The entries live in one slab sized to the capacity, threaded into the
// LRU list by slab index, so a hit, an insert and an eviction make no object.
// An evicted page's frame — its page-sized buffer — goes to a free list, and
// the next miss reads into it (Pins.Fill) instead of allocating one. That
// rests on one pinning rule: a page taken from the cache is used only while
// pinned. Every tree operation holds its pages in a Pins until Release, and
// an entry is evicted only with zero pins, so a frame on the free list is
// referenced by nobody.
package bufcache

import (
	"errors"
	"sync"

	"aurora/internal/core"
	"aurora/internal/page"
)

// ErrPinned is returned by Evict for a pinned page.
var ErrPinned = errors.New("bufcache: page pinned")

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Overflow counts inserts that exceeded capacity because no page was
	// evictable (all hot pages were above the VDL, or pinned) — the
	// back-pressure signal a real engine would throttle on.
	Overflow uint64
	Len      int
	Capacity int
}

// none ends the LRU list and the vacant-slot chain.
const none = -1

// entry is one slab slot: a cached page, or a vacant slot when p is nil.
type entry struct {
	id         core.PageID
	p          page.Page
	pins       int32
	prev, next int32 // LRU neighbours, most recent first; next also chains vacant slots
}

// Cache is a fixed-capacity page cache with LRU eviction under the VDL
// rule. All methods are safe for concurrent use; the pages themselves are
// mutated by the engine under its own latching discipline while pinned.
type Cache struct {
	mu       sync.Mutex
	capacity int
	vdl      func() core.LSN
	index    map[core.PageID]int32 // page → slab slot
	slab     []entry               // capacity slots, grown only by overflow
	head     int32                 // most recently used
	tail     int32                 // least recently used: where eviction looks first
	vacant   int32                 // first vacant slot
	free     []page.Page           // frames of evicted pages, at most capacity
	gen      uint64                // bumped by Invalidate: pins taken before it are void

	hits, misses, evictions, overflow uint64
}

// New returns a cache holding up to capacity pages. vdl supplies the
// current volume durable LSN (the eviction fence).
func New(capacity int, vdl func() core.LSN) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		vdl:      vdl,
		index:    make(map[core.PageID]int32, capacity),
		slab:     make([]entry, 0, capacity),
		head:     none,
		tail:     none,
		vacant:   none,
	}
}

// Get returns the cached page, pinning it until Unpin. The bool reports a
// hit. Pinned pages are never evicted.
func (c *Cache) Get(id core.PageID) (page.Page, bool) {
	p, ok, _ := c.pin(id)
	return p, ok
}

// pin is Get, also reporting the generation the pin belongs to.
func (c *Cache) pin(id core.PageID) (page.Page, bool, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[id]
	if !ok {
		c.misses++
		return nil, false, c.gen
	}
	c.hits++
	e := &c.slab[i]
	e.pins++
	c.touchLocked(i)
	return e.p, true, c.gen
}

// Unpin releases one pin taken by Get or Put.
func (c *Cache) Unpin(id core.PageID) {
	c.mu.Lock()
	c.unpinLocked(id)
	c.mu.Unlock()
}

func (c *Cache) unpinLocked(id core.PageID) {
	if i, ok := c.index[id]; ok && c.slab[i].pins > 0 {
		c.slab[i].pins--
	}
}

// unpinAll releases the pins of ids and more, taken in generation gen: pins
// from before an Invalidate are void.
func (c *Cache) unpinAll(gen uint64, ids, more []core.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	for _, id := range ids {
		c.unpinLocked(id)
	}
	for _, id := range more {
		c.unpinLocked(id)
	}
}

// Put inserts (or replaces) a page and returns it pinned. The cache owns p
// from here on: once evicted, its memory is another miss's frame. If the
// cache is full it evicts the least-recently-used page whose pageLSN <= VDL;
// when nothing qualifies the cache overflows rather than lose an undurable
// page. A replaced page's frame is recycled only if nobody holds it pinned.
func (c *Cache) Put(id core.PageID, p page.Page) page.Page {
	p, _ = c.put(id, p)
	return p
}

// put is Put, also reporting the generation the pin belongs to.
func (c *Cache) put(id core.PageID, p page.Page) (page.Page, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[id]; ok {
		e := &c.slab[i]
		if !sameFrame(e.p, p) {
			if e.pins == 0 {
				c.recycleLocked(e.p)
			}
			e.p = p
		}
		e.pins++
		c.touchLocked(i)
		return p, c.gen
	}
	for len(c.index) >= c.capacity {
		if !c.evictOneLocked() {
			c.overflow++
			break
		}
	}
	i := c.vacant
	if i != none {
		c.vacant = c.slab[i].next
	} else {
		i = int32(len(c.slab))
		c.slab = append(c.slab, entry{})
	}
	c.slab[i] = entry{id: id, p: p, pins: 1}
	c.pushFrontLocked(i)
	c.index[id] = i
	return p, c.gen
}

// frame returns a page-sized buffer for a miss to fill and put: the frame of
// an evicted page when there is one, a new one otherwise. It holds whatever it
// held; the filler overwrites all of it.
func (c *Cache) frame() page.Page {
	c.mu.Lock()
	n := len(c.free)
	if n == 0 {
		c.mu.Unlock()
		return make(page.Page, page.Size)
	}
	p := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	c.mu.Unlock()
	return p
}

// recycleLocked puts a frame nobody references on the free list, which holds
// at most the cache's capacity.
func (c *Cache) recycleLocked(p page.Page) {
	if len(p) == page.Size && len(c.free) < c.capacity {
		c.free = append(c.free, p)
	}
}

// evictOneLocked drops the least-recently-used unpinned page that the VDL
// rule allows, recycling its frame. It reports whether a page was evicted.
func (c *Cache) evictOneLocked() bool {
	fence := c.vdl()
	for i := c.tail; i != none; i = c.slab[i].prev {
		e := &c.slab[i]
		if e.pins > 0 {
			continue
		}
		if e.p.LSN() > fence {
			// The latest change to this page is not yet durable in the
			// log; evicting would violate the "page in cache is always the
			// latest version" guarantee. Skip it.
			continue
		}
		c.recycleLocked(c.dropLocked(i))
		c.evictions++
		return true
	}
	return false
}

// Evict removes a specific page, honouring pins (used by tests and by the
// engine when a page is deallocated).
func (c *Cache) Evict(id core.PageID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	if c.slab[i].pins > 0 {
		return ErrPinned
	}
	c.recycleLocked(c.dropLocked(i))
	c.evictions++
	return nil
}

// Invalidate drops every cached page regardless of pins — used when the
// writer crashes and the runtime state must be rebuilt from storage. Only
// unpinned pages' frames are recycled, and the pins held meanwhile are void:
// their Release is a no-op.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := c.head; i != none; i = c.slab[i].next {
		if c.slab[i].pins == 0 {
			c.recycleLocked(c.slab[i].p)
		}
	}
	clear(c.index)
	clear(c.slab)
	c.slab = c.slab[:0]
	c.head, c.tail, c.vacant = none, none, none
	c.gen++
}

// Resize changes the capacity (instance scaling, §6.1.1). Shrinking evicts
// lazily on the next Put.
func (c *Cache) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	c.capacity = capacity
	if len(c.free) > capacity {
		clear(c.free[capacity:])
		c.free = c.free[:capacity]
	}
	c.mu.Unlock()
}

// Len returns the number of cached pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Overflow: c.overflow, Len: len(c.index), Capacity: c.capacity,
	}
}

// The LRU list, threaded through the slab.

func (c *Cache) pushFrontLocked(i int32) {
	e := &c.slab[i]
	e.prev, e.next = none, c.head
	if c.head != none {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *Cache) unlinkLocked(i int32) {
	e := &c.slab[i]
	if e.prev != none {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) touchLocked(i int32) {
	if c.head != i {
		c.unlinkLocked(i)
		c.pushFrontLocked(i)
	}
}

// dropLocked removes slot i's page from the cache, vacates the slot and
// returns the page.
func (c *Cache) dropLocked(i int32) page.Page {
	c.unlinkLocked(i)
	e := &c.slab[i]
	p := e.p
	delete(c.index, e.id)
	*e = entry{next: c.vacant}
	c.vacant = i
	return p
}

// sameFrame reports whether a and b are the same buffer.
func sameFrame(a, b page.Page) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}
