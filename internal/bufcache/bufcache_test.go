package bufcache

import (
	"runtime/debug"
	"sync"
	"testing"

	"aurora/internal/core"
	"aurora/internal/page"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func mkPage(id core.PageID, lsn core.LSN) page.Page {
	p := page.New(id)
	p.SetLSN(lsn)
	return p
}

func TestHitMissAndPin(t *testing.T) {
	c := New(4, func() core.LSN { return 100 })
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, mkPage(1, 5))
	c.Unpin(1)
	p, ok := c.Get(1)
	if !ok || p.ID() != 1 {
		t.Fatal("miss after put")
	}
	c.Unpin(1)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Len != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2, func() core.LSN { return 100 })
	c.Put(1, mkPage(1, 1))
	c.Unpin(1)
	c.Put(2, mkPage(2, 2))
	c.Unpin(2)
	// Touch page 1 so page 2 is the LRU victim.
	if _, ok := c.Get(1); !ok {
		t.Fatal("page 1 missing")
	}
	c.Unpin(1)
	c.Put(3, mkPage(3, 3))
	c.Unpin(3)
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU page 2 survived")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently used page 1 evicted")
	}
	c.Unpin(1)
}

func TestVDLEvictionRule(t *testing.T) {
	vdl := core.LSN(10)
	c := New(2, func() core.LSN { return vdl })
	// Two pages whose latest changes are NOT durable yet.
	c.Put(1, mkPage(1, 20))
	c.Unpin(1)
	c.Put(2, mkPage(2, 25))
	c.Unpin(2)
	// Nothing is evictable: the cache must overflow, never drop them.
	c.Put(3, mkPage(3, 30))
	c.Unpin(3)
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3 (overflow)", c.Len())
	}
	if c.Stats().Overflow != 1 {
		t.Fatalf("overflow %d", c.Stats().Overflow)
	}
	// The VDL advances past page 1 and 2: now eviction may proceed.
	vdl = 26
	c.Put(4, mkPage(4, 40))
	c.Unpin(4)
	if _, ok := c.Get(1); ok {
		t.Fatal("page 1 should have been evicted once durable")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestPinnedPagesNeverEvicted(t *testing.T) {
	c := New(1, func() core.LSN { return 1000 })
	c.Put(1, mkPage(1, 1)) // stays pinned
	c.Put(2, mkPage(2, 2))
	c.Unpin(2)
	if _, ok := c.Get(1); !ok {
		t.Fatal("pinned page evicted")
	}
	c.Unpin(1)
	c.Unpin(1) // now unpinned
	if err := c.Evict(1); err != nil {
		t.Fatal(err)
	}
}

func TestEvictRespectsPins(t *testing.T) {
	c := New(4, func() core.LSN { return 1000 })
	c.Put(1, mkPage(1, 1))
	if err := c.Evict(1); err != ErrPinned {
		t.Fatalf("evict pinned: %v", err)
	}
	c.Unpin(1)
	if err := c.Evict(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict(99); err != nil {
		t.Fatal("evict of absent page should be nil")
	}
}

func TestPutReplacesAndRepins(t *testing.T) {
	c := New(4, func() core.LSN { return 100 })
	c.Put(1, mkPage(1, 5))
	c.Unpin(1)
	repl := mkPage(1, 9)
	got := c.Put(1, repl)
	if got.LSN() != 9 {
		t.Fatal("replacement not installed")
	}
	c.Unpin(1)
	if c.Len() != 1 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestInvalidateAndResize(t *testing.T) {
	c := New(4, func() core.LSN { return 100 })
	for i := core.PageID(1); i <= 4; i++ {
		c.Put(i, mkPage(i, 1))
		c.Unpin(i)
	}
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatal("invalidate left pages")
	}
	c.Resize(2)
	for i := core.PageID(1); i <= 3; i++ {
		c.Put(i, mkPage(i, 1))
		c.Unpin(i)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d after resize to 2", c.Len())
	}
	c.Resize(0) // clamps to 1
	if c.Stats().Capacity != 1 {
		t.Fatal("capacity clamp failed")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(32, func() core.LSN { return 1 << 40 })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := core.PageID(i % 64)
				if p, ok := c.Get(id); ok {
					_ = p.LSN()
					c.Unpin(id)
				} else {
					c.Put(id, mkPage(id, core.LSN(i)))
					c.Unpin(id)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 33 {
		t.Fatalf("cache grew unboundedly: %d", c.Len())
	}
}

// A frame is recycled only once nobody pins it: an evicted page's buffer is
// the next Frame, a pinned page is never evicted, and a pinned page that is
// replaced or invalidated keeps its buffer to its holder.
func TestFrameFreedOnlyWithZeroPins(t *testing.T) {
	c := New(2, func() core.LSN { return 100 })
	held := c.Put(1, mkPage(1, 1)) // stays pinned
	c.Put(2, mkPage(2, 1))
	c.Unpin(2)
	victim, _ := c.Get(2)
	c.Unpin(2)
	c.Put(3, mkPage(3, 1)) // evicts 2, the only unpinned page
	c.Unpin(3)
	if _, ok := c.Get(1); !ok {
		t.Fatal("pinned page evicted")
	}
	c.Unpin(1)
	if f := c.frame(); &f[0] != &victim[0] {
		t.Fatal("the evicted page's frame was not the next miss's")
	}
	if f := c.frame(); &f[0] == &held[0] {
		t.Fatal("a pinned page's frame was handed out")
	}

	// Replaced while pinned: the old frame stays its holder's.
	c.Put(1, mkPage(1, 2))
	c.Unpin(1)
	c.Unpin(1)
	// Invalidated while pinned: likewise, and the pin is void.
	pinned, _ := c.Get(3)
	c.Invalidate()
	for i := 0; i < 4; i++ {
		if f := c.frame(); &f[0] == &held[0] || &f[0] == &pinned[0] {
			t.Fatalf("frame %d: a pinned page's buffer was recycled", i)
		}
	}
}

func TestPutExistingID(t *testing.T) {
	c := New(4, func() core.LSN { return 100 })
	old := c.Put(1, mkPage(1, 5))
	c.Unpin(1)
	// The same buffer again: a pin, nothing recycled.
	if got := c.Put(1, old); &got[0] != &old[0] {
		t.Fatal("re-put of the cached buffer replaced it")
	}
	c.Unpin(1)
	if f := c.frame(); &f[0] == &old[0] {
		t.Fatal("re-put recycled the cached buffer")
	}
	// A new buffer replaces the unpinned one, whose frame is recycled.
	repl := mkPage(1, 9)
	if got := c.Put(1, repl); &got[0] != &repl[0] {
		t.Fatal("replacement not installed")
	}
	if f := c.frame(); &f[0] != &old[0] {
		t.Fatal("the replaced unpinned buffer was not recycled")
	}
	if p, ok := c.Get(1); !ok || p.LSN() != 9 {
		t.Fatal("replacement not served")
	}
	c.Unpin(1)
	c.Unpin(1)
	if err := c.Evict(1); err != nil {
		t.Fatalf("pins left after a re-put: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestInvalidateVoidsHeldPins(t *testing.T) {
	c := New(4, func() core.LSN { return 100 })
	s := c.NewPins()
	s.Put(1, mkPage(1, 1))
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatal("invalidate left pages")
	}
	// The same id cached again and pinned by someone else: the stale
	// Release must not take that pin.
	c.Put(1, mkPage(1, 2))
	s.Release()
	if err := c.Evict(1); err != ErrPinned {
		t.Fatalf("evict after a stale release: %v, want ErrPinned", err)
	}
	// A set that pins again after the invalidation keeps only the new pins.
	s.Put(2, mkPage(2, 1))
	s.Release()
	if err := c.Evict(2); err != nil {
		t.Fatalf("pin survived Release: %v", err)
	}
}

func TestOverflowWhenNothingEvictable(t *testing.T) {
	vdl := core.LSN(0)
	c := New(2, func() core.LSN { return vdl })
	s := c.NewPins()
	for id := core.PageID(1); id <= 12; id++ { // more than the inline pins
		s.Put(id, mkPage(id, core.LSN(id)))
	}
	if st := c.Stats(); st.Len != 12 || st.Overflow != 10 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 12 pages, 10 overflows, no eviction", st)
	}
	s.Release()
	// Unpinned but above the VDL: still nothing to evict.
	c.Put(13, mkPage(13, 13))
	c.Unpin(13)
	if st := c.Stats(); st.Len != 13 || st.Overflow != 11 {
		t.Fatalf("stats %+v, want 13 pages, 11 overflows", st)
	}
	// Durable: the next insert evicts back under capacity, oldest first.
	vdl = 100
	c.Put(14, mkPage(14, 1))
	c.Unpin(14)
	if st := c.Stats(); st.Len != 2 || st.Evictions != 12 {
		t.Fatalf("stats %+v, want 2 pages after 12 evictions", st)
	}
	if _, ok := c.Get(13); !ok {
		t.Fatal("most recent page evicted")
	}
	c.Unpin(13)
}

// TestCacheEvictInsertZeroAllocs pins a full cache's miss at zero objects:
// the victim's slot and frame serve the page that replaces it.
func TestCacheEvictInsertZeroAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own; the pin runs in normal builds")
	}
	const capacity = 64
	c := New(capacity, func() core.LSN { return 1 << 40 })
	s := c.NewPins()
	id := core.PageID(0)
	miss := func() {
		if _, ok := s.Get(id); ok {
			t.Fatal("hit on a page never inserted")
		}
		if _, err := s.FreshPage(id); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(id); !ok {
			t.Fatal("miss on the page just inserted")
		}
		s.Release()
		id++
	}
	for i := 0; i < 2*capacity; i++ {
		miss()
	}
	if avg := testing.AllocsPerRun(1000, miss); avg != 0 {
		t.Fatalf("evict + insert allocates %.2f objects, want 0", avg)
	}
	if st := c.Stats(); st.Len != capacity || st.Overflow != 0 {
		t.Fatalf("stats %+v", st)
	}
}
