package bufcache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aurora/internal/core"
)

// checkList verifies the list's invariants: the links run both ways over
// exactly the cached entries, and the vacant slots hold no page.
func checkList(c *Cache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.index)
	seen, prev := 0, int32(none)
	for i := c.head; i != none; i = c.slab[i].next {
		e := &c.slab[i]
		if seen++; seen > n {
			return fmt.Errorf("list longer than the %d cached entries", n)
		}
		if e.prev != prev {
			return fmt.Errorf("slot %d: prev %d, want %d", i, e.prev, prev)
		}
		if j, ok := c.index[e.id]; !ok || j != i || e.p == nil {
			return fmt.Errorf("slot %d: page %d indexed at %d (%v)", i, e.id, j, ok)
		}
		prev = i
	}
	switch {
	case prev != c.tail:
		return fmt.Errorf("tail %d, list ends at %d", c.tail, prev)
	case seen != n:
		return fmt.Errorf("%d entries linked, %d cached", seen, n)
	}
	vacant := 0
	for i := c.vacant; i != none; i = c.slab[i].next {
		if vacant++; vacant > len(c.slab) {
			return errors.New("vacant chain loops")
		}
		if e := &c.slab[i]; e.p != nil || e.pins != 0 {
			return fmt.Errorf("vacant slot %d holds %+v", i, *e)
		}
	}
	if vacant+n != len(c.slab) {
		return fmt.Errorf("%d vacant + %d cached slots, slab of %d", vacant, n, len(c.slab))
	}
	return nil
}

// listOrder returns the cached ids most recent first.
func listOrder(c *Cache) []core.PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []core.PageID
	for i := c.head; i != none; i = c.slab[i].next {
		ids = append(ids, c.slab[i].id)
	}
	return ids
}

// model is a slice-based reference of the policy. list holds the cached ids
// most recent first; a new id goes in at its end.
type model struct {
	list     []core.PageID
	pins     map[core.PageID]int
	lsn      map[core.PageID]core.LSN
	capacity int
	vdl      core.LSN
	st       Stats
}

func (m *model) remove(id core.PageID) {
	m.list = slices.DeleteFunc(m.list, func(x core.PageID) bool { return x == id })
	delete(m.pins, id)
	delete(m.lsn, id)
}

func (m *model) toHead(id core.PageID) {
	m.list = slices.DeleteFunc(m.list, func(x core.PageID) bool { return x == id })
	m.list = slices.Insert(m.list, 0, id)
}

func (m *model) cached(id core.PageID) bool { return slices.Contains(m.list, id) }

func (m *model) get(id core.PageID) bool {
	if !m.cached(id) {
		m.st.Misses++
		return false
	}
	m.st.Hits++
	m.pins[id]++
	m.toHead(id)
	return true
}

// put returns the ids it evicted.
func (m *model) put(id core.PageID, lsn core.LSN) (evicted []core.PageID) {
	m.lsn[id] = lsn
	m.pins[id]++
	if m.cached(id) {
		m.toHead(id)
		return nil
	}
	for len(m.list) >= m.capacity {
		victim := -1
		for p := len(m.list) - 1; p >= 0; p-- {
			if v := m.list[p]; m.pins[v] == 0 && m.lsn[v] <= m.vdl {
				victim = p
				break
			}
		}
		if victim < 0 {
			m.st.Overflow++
			break
		}
		v := m.list[victim]
		m.remove(v)
		m.st.Evictions++
		evicted = append(evicted, v)
	}
	m.list = append(m.list, id)
	return evicted
}

// TestPolicyMatchesModel drives the cache and the model with the same random
// steps — new and existing Puts, hit and miss Gets, Unpin, Evict, Invalidate,
// Resize and VDL moves — and after every step requires the same list order,
// evictions and counters, and the list's invariants.
func TestPolicyMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &model{pins: map[core.PageID]int{}, lsn: map[core.PageID]core.LSN{}, capacity: 1 + rng.Intn(12), vdl: 50}
		c := New(m.capacity, func() core.LSN { return m.vdl })
		for step := 0; step < 300; step++ {
			id := core.PageID(1 + rng.Intn(20))
			var op string
			switch r := rng.Intn(100); {
			case r < 30:
				lsn := core.LSN(rng.Intn(100))
				op = fmt.Sprintf("Put(%d, lsn %d)", id, lsn)
				evicted := m.put(id, lsn)
				c.Put(id, mkPage(id, lsn))
				for _, v := range evicted {
					if _, ok := c.index[v]; ok {
						t.Fatalf("seed %d step %d %s: page %d not evicted", seed, step, op, v)
					}
				}
			case r < 55:
				op = fmt.Sprintf("Get(%d)", id)
				if _, hit := c.Get(id); hit != m.get(id) {
					t.Fatalf("seed %d step %d %s: hit %v", seed, step, op, hit)
				}
			case r < 80:
				if len(m.list) > 0 {
					id = m.list[rng.Intn(len(m.list))]
				}
				op = fmt.Sprintf("Unpin(%d)", id)
				c.Unpin(id)
				if m.pins[id] > 0 {
					m.pins[id]--
				}
			case r < 85:
				op = fmt.Sprintf("Evict(%d)", id)
				want := error(nil)
				if m.pins[id] > 0 {
					want = ErrPinned
				} else if m.cached(id) {
					m.remove(id)
					m.st.Evictions++
				}
				if err := c.Evict(id); err != want {
					t.Fatalf("seed %d step %d %s: %v, want %v", seed, step, op, err, want)
				}
			case r < 87:
				op = "Invalidate"
				c.Invalidate()
				m.list = m.list[:0]
				clear(m.pins)
				clear(m.lsn)
			case r < 92:
				m.capacity = 1 + rng.Intn(16)
				op = fmt.Sprintf("Resize(%d)", m.capacity)
				c.Resize(m.capacity)
			default:
				m.vdl = core.LSN(rng.Intn(100))
				op = fmt.Sprintf("VDL %d", m.vdl)
			}
			if ids := listOrder(c); !slices.Equal(ids, m.list) {
				t.Fatalf("seed %d step %d %s: list %v, want %v", seed, step, op, ids, m.list)
			}
			m.st.Len, m.st.Capacity = len(m.list), m.capacity
			if st := c.Stats(); st != m.st {
				t.Fatalf("seed %d step %d %s: stats %+v, want %+v", seed, step, op, st, m.st)
			}
			if err := checkList(c); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
		}
	}
}

// TestDescentKeepsUpperLevels runs random descents over a three-level tree —
// one root, 40 internal nodes, 2 000 leaves — through a 64-page cache. The 41
// upper pages are hit on most descents, the leaves about once each, so a
// leaf's miss must not push an upper page out: a descent costs its leaf and
// little more, warm and again from cold after an Invalidate. (Plain LRU reads
// about 1.36 misses per descent here.)
func TestDescentKeepsUpperLevels(t *testing.T) {
	const (
		internals = 40
		leaves    = 2000
		pages     = 64
		limit     = 1.10
	)
	c := New(pages, func() core.LSN { return 1 << 40 })
	s := c.NewPins()
	rng := rand.New(rand.NewSource(40))
	touch := func(id core.PageID) {
		if _, ok := s.Get(id); !ok {
			if _, err := s.FreshPage(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	descend := func(n int) float64 {
		before := c.Stats().Misses
		for range n {
			leaf := rng.Intn(leaves)
			touch(1)
			touch(core.PageID(2 + leaf*internals/leaves))
			touch(core.PageID(2 + internals + leaf))
			s.Release()
		}
		return float64(c.Stats().Misses-before) / float64(n)
	}
	descend(5000)
	if got := descend(20000); got > limit {
		t.Fatalf("warm: %.3f misses per descent, want at most %.2f", got, limit)
	}
	c.Invalidate()
	if got := descend(20000); got > limit {
		t.Fatalf("after Invalidate: %.3f misses per descent, want at most %.2f", got, limit)
	}
	if err := checkList(c); err != nil {
		t.Fatal(err)
	}
}
