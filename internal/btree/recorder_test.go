package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aurora/internal/core"
	"aurora/internal/page"
)

// TestRecordersShareThePool: before-images come from one process-wide pool,
// so every engine in the process — the tenants of one storage fleet, the
// MySQL baseline beside an Aurora cluster — draws from it at once. Each
// goroutine here is one such engine: it commits and rolls back on its own
// tree and keeps a shadow of its pages built only from the redo it logged. A
// before-image that leaked between recorders would show as redo that no
// longer reproduces the tree, or as a rollback that restores someone else's
// page. Run under -race by `make race`.
func TestRecordersShareThePool(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := commitAndShadow(int64(g), 300); err != nil {
				t.Errorf("engine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}

// shadow keeps every page of a memStore as the redo logged so far makes it.
// Since every page the store holds must equal its shadow after each logged
// operation, the shadow's pages are the before-images of the next one.
type shadow struct {
	s     *memStore
	pages map[core.PageID]page.Page
	lsn   core.LSN
}

func newShadow(s *memStore) *shadow {
	return &shadow{s: s, pages: make(map[core.PageID]page.Page)}
}

// log replays rec's redo onto the shadow, stamps the store's pages as a
// commit would, and reports a page the replay does not reproduce.
func (sh *shadow) log(rec *Recorder) error {
	m := &core.MTR{Txn: uint64(sh.lsn)}
	if err := rec.AppendRecords(m, func(core.PageID) core.PGID { return 0 }); err != nil {
		return err
	}
	for i := range m.Records {
		r := &m.Records[i]
		sh.lsn++
		r.LSN = sh.lsn
		p := sh.pages[r.Page]
		if p == nil {
			p = page.New(r.Page)
			sh.pages[r.Page] = p
		}
		if err := p.Apply(r); err != nil {
			return err
		}
	}
	rec.StampLSNs(m.LastLSNFor)
	return sh.differs()
}

// differs finds a page that is not what the redo logged so far makes it. A
// page with no redo at all was allocated by an operation that rolled back,
// and must be back to the zeroes it started as.
func (sh *shadow) differs() error {
	var zero [page.PayloadSize]byte
	for id, p := range sh.s.pages {
		want := zero[:]
		if sp := sh.pages[id]; sp != nil {
			want = sp.Payload()
		}
		if !bytes.Equal(p.Payload(), want) {
			return fmt.Errorf("page %d differs from the replay of its redo", id)
		}
	}
	return nil
}

func commitAndShadow(seed int64, commits int) error {
	rng := rand.New(rand.NewSource(seed))
	s := newMemStore()
	sh := newShadow(s)
	rec := NewRecorder()
	tr, err := Create(s, rec)
	if err != nil {
		return err
	}
	if err := sh.log(rec); err != nil {
		return err
	}
	for c := 0; c < commits; c++ {
		rec := NewRecorder()
		for w := 1 + rng.Intn(3); w > 0; w-- {
			key := []byte(fmt.Sprintf("k%04d", rng.Intn(400)))
			val := make([]byte, 20+rng.Intn(200))
			rng.Read(val)
			if err := tr.Put(rec, key, val); err != nil {
				return err
			}
		}
		if rng.Intn(5) == 0 {
			rec.Rollback()
			if err := sh.differs(); err != nil {
				return fmt.Errorf("commit %d rolled back: %w", c, err)
			}
			continue
		}
		if err := sh.log(rec); err != nil {
			return fmt.Errorf("commit %d: %w", c, err)
		}
	}
	return tr.CheckInvariants()
}
