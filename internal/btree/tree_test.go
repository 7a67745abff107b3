package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aurora/internal/core"
	"aurora/internal/page"
)

// memStore is an in-memory Store for unit tests.
type memStore struct {
	pages map[core.PageID]page.Page
}

func newMemStore() *memStore { return &memStore{pages: make(map[core.PageID]page.Page)} }

func (s *memStore) Page(id core.PageID) (page.Page, error) {
	p, ok := s.pages[id]
	if !ok {
		return nil, fmt.Errorf("memstore: page %d missing", id)
	}
	return p, nil
}

func (s *memStore) FreshPage(id core.PageID) (page.Page, error) {
	p := page.New(id)
	s.pages[id] = p
	return p, nil
}

func newTree(t *testing.T) (*Tree, *memStore) {
	t.Helper()
	s := newMemStore()
	rec := NewRecorder()
	tr, err := Create(s, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Touched() {
		t.Fatal("create recorded nothing")
	}
	return tr, s
}

func TestCreateAndOpen(t *testing.T) {
	_, s := newTree(t)
	tr, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tr.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("get on empty tree: %v %v", ok, err)
	}
	// Open on a non-tree store fails.
	bad := newMemStore()
	if _, err := bad.FreshPage(MetaPageID); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("Open accepted an unformatted meta page")
	}
}

func TestPutGetDelete(t *testing.T) {
	tr, _ := newTree(t)
	rec := NewRecorder()
	if err := tr.Put(rec, []byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(rec, []byte("beta"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get alpha: %q %v %v", v, ok, err)
	}
	// Replace.
	if err := tr.Put(rec, []byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tr.Get([]byte("alpha"))
	if string(v) != "one" {
		t.Fatalf("after replace: %q", v)
	}
	rows, _ := tr.Rows()
	if rows != 2 {
		t.Fatalf("rows %d, want 2", rows)
	}
	// Delete.
	ok, err = tr.Delete(rec, []byte("alpha"))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, ok, _ := tr.Get([]byte("alpha")); ok {
		t.Fatal("deleted key still visible")
	}
	if ok, _ := tr.Delete(rec, []byte("alpha")); ok {
		t.Fatal("double delete reported true")
	}
	rows, _ = tr.Rows()
	if rows != 1 {
		t.Fatalf("rows %d, want 1", rows)
	}
}

func TestValidationErrors(t *testing.T) {
	tr, _ := newTree(t)
	rec := NewRecorder()
	if err := tr.Put(rec, nil, []byte("v")); err != ErrEmptyKey {
		t.Fatalf("empty key: %v", err)
	}
	if err := tr.Put(rec, bytes.Repeat([]byte("k"), MaxKey+1), nil); err != ErrKeyTooLarge {
		t.Fatalf("big key: %v", err)
	}
	if err := tr.Put(rec, []byte("k"), bytes.Repeat([]byte("v"), MaxValue+1)); err != ErrValueTooLarge {
		t.Fatalf("big value: %v", err)
	}
}

func TestSplitsAndOrderedScan(t *testing.T) {
	tr, _ := newTree(t)
	rec := NewRecorder()
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := []byte(fmt.Sprintf("key%06d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if err := tr.Put(rec, k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rows, _ := tr.Rows()
	if rows != n {
		t.Fatalf("rows %d, want %d", rows, n)
	}
	// Full scan is ordered and complete.
	var got []string
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan found %d, want %d", len(got), n)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("scan out of order")
	}
	// Point lookups across the whole range.
	for i := 0; i < n; i += 97 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, ok, err := tr.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %s: %v %v", k, ok, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %s = %q", k, v)
		}
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr, _ := newTree(t)
	rec := NewRecorder()
	for i := 0; i < 100; i++ {
		if err := tr.Put(rec, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Scan([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("range scan %v", got)
	}
	// Early stop.
	count := 0
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestCompactionReclaimsDeadSpace(t *testing.T) {
	tr, s := newTree(t)
	rec := NewRecorder()
	// Repeatedly overwrite one key with values large enough to fill the
	// leaf with dead entries; without compaction this would split.
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 200; i++ {
		if err := tr.Put(rec, []byte("hot"), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree must still be a single leaf plus meta: compaction, not
	// splitting, absorbed the churn.
	if len(s.pages) != 2 {
		t.Fatalf("pages %d, want 2 (meta+leaf)", len(s.pages))
	}
	rows, _ := tr.Rows()
	if rows != 1 {
		t.Fatalf("rows %d", rows)
	}
}

func TestDeltaRecordsAreCompact(t *testing.T) {
	tr, _ := newTree(t)
	seed := NewRecorder()
	if err := tr.Put(seed, []byte("seed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A single small put into a non-splitting leaf must log far less than
	// a page — the heart of "only redo crosses the network" (§3.2).
	rec := NewRecorder()
	if err := tr.Put(rec, []byte("key-abc"), []byte("value-xyz")); err != nil {
		t.Fatal(err)
	}
	m := &core.MTR{Txn: 1}
	if err := rec.AppendRecords(m, func(core.PageID) core.PGID { return 0 }); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range m.Records {
		total += len(r.Data)
	}
	if total == 0 {
		t.Fatal("no delta bytes recorded")
	}
	if total > 256 {
		t.Fatalf("single put logged %d delta bytes, want << page size", total)
	}
}

func TestRecorderRollback(t *testing.T) {
	tr, _ := newTree(t)
	rec := NewRecorder()
	if err := tr.Put(rec, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	rec2 := NewRecorder()
	if err := tr.Put(rec2, []byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	rec2.Rollback()
	if _, ok, _ := tr.Get([]byte("b")); ok {
		t.Fatal("rolled-back key visible")
	}
	if v, ok, _ := tr.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatal("rollback damaged earlier data")
	}
	// Rows counter also restored (meta page was touched by rec2's Put).
	rows, _ := tr.Rows()
	if rows != 1 {
		t.Fatalf("rows %d after rollback, want 1", rows)
	}
}

// Model-based property test: random Put/Delete/Get against a map oracle,
// with invariant checks and a final full comparison via Scan.
func TestTreeMatchesModel(t *testing.T) {
	for _, seed := range []int64{7, 42, 99, 12345} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, _ := newTree(t)
			rec := NewRecorder()
			rng := rand.New(rand.NewSource(seed))
			model := make(map[string]string)
			keyFor := func() []byte {
				return []byte(fmt.Sprintf("k%04d", rng.Intn(800)))
			}
			for op := 0; op < 5000; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // put
					k := keyFor()
					v := []byte(fmt.Sprintf("v%d-%d", op, rng.Intn(1000)))
					if err := tr.Put(rec, k, v); err != nil {
						t.Fatalf("op %d put: %v", op, err)
					}
					model[string(k)] = string(v)
				case 6, 7: // delete
					k := keyFor()
					ok, err := tr.Delete(rec, k)
					if err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					_, inModel := model[string(k)]
					if ok != inModel {
						t.Fatalf("op %d delete mismatch: tree %v model %v", op, ok, inModel)
					}
					delete(model, string(k))
				default: // get
					k := keyFor()
					v, ok, err := tr.Get(k)
					if err != nil {
						t.Fatalf("op %d get: %v", op, err)
					}
					want, inModel := model[string(k)]
					if ok != inModel || (ok && string(v) != want) {
						t.Fatalf("op %d get mismatch: %q %v vs %q %v", op, v, ok, want, inModel)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			rows, _ := tr.Rows()
			if int(rows) != len(model) {
				t.Fatalf("rows %d, model %d", rows, len(model))
			}
			got := make(map[string]string)
			if err := tr.Scan(nil, nil, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) {
				t.Fatalf("scan %d entries, model %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("key %q: tree %q model %q", k, got[k], v)
				}
			}
		})
	}
}

func BenchmarkTreePut(b *testing.B) {
	s := newMemStore()
	rec := NewRecorder()
	tr, err := Create(s, rec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key%09d", i))
		if err := tr.Put(rec, k, k); err != nil {
			b.Fatal(err)
		}
	}
}
