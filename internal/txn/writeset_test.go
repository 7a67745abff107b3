package txn

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"aurora/internal/btree"
	"aurora/internal/core"
	"aurora/internal/page"
)

// memStore is an in-memory btree.Store.
type memStore map[core.PageID]page.Page

func (s memStore) Page(id core.PageID) (page.Page, error) {
	p, ok := s[id]
	if !ok {
		return nil, fmt.Errorf("memstore: page %d missing", id)
	}
	return p, nil
}

func (s memStore) FreshPage(id core.PageID) (page.Page, error) {
	s[id] = page.New(id)
	return s[id], nil
}

// treeWith returns a tree holding the given keys, each with value "c".
func treeWith(t *testing.T, keys ...string) *btree.Tree {
	t.Helper()
	tr, err := btree.Create(memStore{}, btree.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := tr.Put(btree.NewRecorder(), []byte(k), []byte("c")); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// rows collects a scan as "key=val" strings, stopping after limit rows when
// limit > 0.
func rows(limit int, scan func(fn func(k, v []byte) bool) error) ([]string, error) {
	var out []string
	err := scan(func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return limit <= 0 || len(out) < limit
	})
	return out, err
}

func optBytes(s string) []byte {
	if s == "" {
		return nil
	}
	return []byte(s)
}

// TestWriteSet drives the one write set both engines embed: validation at the
// btree limits, first-touch order, read-your-writes, the pending/tree merge
// Scan does, and Apply leaving the tree exactly as Scan showed it.
func TestWriteSet(t *testing.T) {
	type write struct {
		key, val []byte
		del      bool
		err      error // expected
	}
	put := func(k, v string) write { return write{key: []byte(k), val: []byte(v)} }
	del := func(k string) write { return write{key: []byte(k), del: true} }
	fill := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

	cases := []struct {
		name     string
		tree     []string
		writes   []write
		from, to string   // scan bounds, "" = open
		limit    int      // stop the scan after this many rows, 0 = never
		want     []string // what the scan visits
		order    []string // Each, when it matters: "key=val" or "key-" for a delete
	}{
		{
			name: "validation at the btree limits",
			tree: []string{"b"},
			writes: []write{
				{key: nil, val: []byte("v"), err: btree.ErrEmptyKey},
				{key: nil, del: true, err: btree.ErrEmptyKey},
				{key: fill(btree.MaxKey + 1), val: []byte("v"), err: btree.ErrKeyTooLarge},
				{key: []byte("k"), val: fill(btree.MaxValue + 1), err: btree.ErrValueTooLarge},
				{key: fill(btree.MaxKey), val: fill(btree.MaxValue)},
			},
			want:  []string{"b=c", string(fill(btree.MaxKey)) + "=" + string(fill(btree.MaxValue))},
			order: []string{string(fill(btree.MaxKey)) + "=" + string(fill(btree.MaxValue))},
		},
		{
			name:   "overwrite keeps first-touch order and the last value",
			writes: []write{put("z", "1"), put("a", "1"), put("z", "2"), del("a"), put("m", "1")},
			want:   []string{"m=1", "z=2"},
			order:  []string{"z=2", "a-", "m=1"},
		},
		{
			name:   "delete then put is a put",
			tree:   []string{"a", "b"},
			writes: []write{del("a"), put("a", "back"), del("b")},
			want:   []string{"a=back"},
			order:  []string{"a=back", "b-"},
		},
		{
			name:   "pending keys before, between and after tree keys",
			tree:   []string{"b", "d", "f", "h"},
			writes: []write{put("g", "new"), put("a", "new"), put("d", "upd"), del("f"), put("z", "new"), put("c", "new")},
			want:   []string{"a=new", "b=c", "c=new", "d=upd", "g=new", "h=c", "z=new"},
		},
		{
			name:   "bounds apply to pending keys too",
			tree:   []string{"b", "d", "f"},
			writes: []write{put("a", "new"), put("c", "new"), put("e", "new"), put("g", "new")},
			from:   "c", to: "f",
			want: []string{"c=new", "d=c", "e=new"},
		},
		{
			name:   "early stop on a pending key",
			tree:   []string{"b", "d"},
			writes: []write{put("a", "new"), put("c", "new"), put("e", "new")},
			limit:  3,
			want:   []string{"a=new", "b=c", "c=new"},
		},
		{
			name:   "early stop on a tree key emits no trailing pending keys",
			tree:   []string{"b", "d"},
			writes: []write{put("a", "new"), put("z", "new")},
			limit:  2,
			want:   []string{"a=new", "b=c"},
		},
		{
			name:   "deleting an absent key is not an error",
			tree:   []string{"b"},
			writes: []write{del("nope")},
			want:   []string{"b=c"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := treeWith(t, tc.tree...)
			m := NewManager(0)
			ws := m.Begin()
			buffered := map[string]bool{}
			for _, w := range tc.writes {
				var err error
				if w.del {
					err = ws.Delete(w.key)
				} else {
					err = ws.Put(w.key, w.val)
				}
				if !errors.Is(err, w.err) {
					t.Fatalf("write %q: err %v, want %v", w.key, err, w.err)
				}
				if err == nil {
					buffered[string(w.key)] = true
				}
			}
			if ws.Len() != len(buffered) {
				t.Fatalf("Len %d, want %d", ws.Len(), len(buffered))
			}
			for k := range buffered {
				if holder, ok := m.Locks.Holder(k); !ok || holder != ws.ID() {
					t.Fatalf("row lock on %q not held", k)
				}
			}

			got, err := rows(tc.limit, func(fn func(k, v []byte) bool) error {
				return ws.Scan(tr, optBytes(tc.from), optBytes(tc.to), fn)
			})
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("scan %q (err %v), want %q", got, err, tc.want)
			}
			if tc.order != nil {
				var order []string
				ws.Each(func(key string, val []byte, del bool) {
					if del {
						order = append(order, key+"-")
					} else {
						order = append(order, key+"="+string(val))
					}
				})
				if !reflect.DeepEqual(order, tc.order) {
					t.Fatalf("order %q, want %q", order, tc.order)
				}
			}

			// Read-your-writes agrees with the scan, row by row; an untouched
			// key is the tree's to answer.
			full, _ := rows(0, func(fn func(k, v []byte) bool) error { return ws.Scan(tr, nil, nil, fn) })
			visible := map[string]string{}
			for _, r := range full {
				k, v, _ := bytes.Cut([]byte(r), []byte("="))
				visible[string(k)] = string(v)
			}
			for k := range buffered {
				v, found, ok := ws.Pending([]byte(k))
				want, wantFound := visible[k]
				if !ok || found != wantFound || string(v) != want {
					t.Fatalf("Pending(%q) = %q %v %v, scan says %q %v", k, v, found, ok, want, wantFound)
				}
			}
			if _, _, ok := ws.Pending([]byte("untouched")); ok {
				t.Fatal("Pending answered for a key the transaction never wrote")
			}

			// Apply leaves the tree exactly as the transaction saw it.
			if err := ws.Apply(tr, btree.NewRecorder()); err != nil {
				t.Fatal(err)
			}
			after, err := rows(0, func(fn func(k, v []byte) bool) error { return tr.Scan(nil, nil, fn) })
			if err != nil || !reflect.DeepEqual(after, full) {
				t.Fatalf("tree after apply %q (err %v), transaction saw %q", after, err, full)
			}
			ws.Finish(true)
			for k := range buffered {
				if _, ok := m.Locks.Holder(k); ok {
					t.Fatalf("row lock on %q survived Finish", k)
				}
			}
			if err := ws.Put([]byte("k"), nil); !errors.Is(err, ErrTxDone) {
				t.Fatalf("Put after Finish: %v", err)
			}
			if _, commits, aborts := m.Counts(); commits != 1 || aborts != 0 {
				t.Fatalf("commits %d aborts %d", commits, aborts)
			}
		})
	}
}

func TestWriteSetLockTimeoutAbortsAndReleases(t *testing.T) {
	m := NewManager(20 * time.Millisecond)
	holder, waiter := m.Begin(), m.Begin()
	if err := holder.Put([]byte("hot"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := waiter.Put([]byte("mine"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := waiter.Delete([]byte("hot")); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("contended delete: %v", err)
	}
	if !waiter.Done() {
		t.Fatal("a lock timeout must abort the transaction")
	}
	if n := m.Locks.HeldBy(waiter.ID()); n != 0 {
		t.Fatalf("aborted transaction still holds %d locks", n)
	}
	if err := waiter.Put([]byte("mine"), []byte("v")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("write on the aborted transaction: %v", err)
	}
	waiter.Abort() // already finished: must not count twice
	if begins, commits, aborts := m.Counts(); begins != 2 || commits != 0 || aborts != 1 {
		t.Fatalf("begins %d commits %d aborts %d", begins, commits, aborts)
	}
	// The holder is unaffected and the freed row is free.
	if !m.Locks.TryAcquire(99, "mine") {
		t.Fatal("row the aborted transaction held is still locked")
	}
	if _, found, ok := holder.Pending([]byte("hot")); !ok || !found {
		t.Fatal("holder lost its write")
	}
}

func TestWriteSetReadOnly(t *testing.T) {
	m := NewManager(0)
	ro, rw := m.BeginReadOnly(), m.Begin()
	if !ro.ReadOnly() || rw.ReadOnly() {
		t.Fatal("ReadOnly misreports")
	}
	if err := ro.Put([]byte("k"), nil); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("put: %v", err)
	}
	if err := ro.Delete([]byte("k")); !errors.Is(err, ErrReadOnlyTx) {
		t.Fatalf("delete: %v", err)
	}
	if ro.Len() != 0 || ro.Done() {
		t.Fatal("a refused write changed the transaction")
	}
}
