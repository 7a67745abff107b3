package btree

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"aurora/internal/core"
	"aurora/internal/page"
)

// Allocation pins for the page path, in the style of internal/core's pins
// for the log path: the benchmarks report allocs/op, the tests pin the
// counts so a regression fails plain `go test`.

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of what is Put into it.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func benchKey(i int) []byte { return []byte(fmt.Sprintf("sbtest%010d", i)) }

// benchKeys returns 1024 keys of the loaded tree, stride rows apart.
func benchKeys(stride int) [][]byte {
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = benchKey(i * stride % benchRows)
	}
	return keys
}

// loadedTree builds a tree of rows 100-byte values inserted in key order, so
// every leaf but the last is left half full by its split: a replace that
// changes a value's length appends into that free half for a long time
// before any leaf has to compact.
func loadedTree(tb testing.TB, rows int) *Tree {
	tb.Helper()
	s := newMemStore()
	rec := NewRecorder()
	tr, err := Create(s, rec)
	if err != nil {
		tb.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < rows; i++ {
		rec.Reset()
		if err := tr.Put(rec, benchKey(i), val); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

const benchRows = 8000

func TestNodeLookupZeroAllocs(t *testing.T) {
	leaf := initLeaf(page.New(1), 0)
	val := make([]byte, 100)
	rows := 0
	for leaf.free() >= leafEntrySize(16, len(val)) {
		leaf.appendLeaf(benchKey(rows), val)
		rows++
	}
	var brs []branch
	for total := 0; total+branchSize(16) <= len(leaf.area()); total += branchSize(16) {
		brs = append(brs, branch{key: benchKey(len(brs)), child: uint64(len(brs) + 2)})
	}
	inner := initInternal(page.New(2), 1, brs)
	t.Logf("full nodes: %d leaf entries, %d separators", rows, len(brs))

	key := benchKey(rows - 1) // the last entry: the whole node is compared
	if avg := testing.AllocsPerRun(1000, func() {
		if _, ok, err := leaf.findLive(key); !ok || err != nil {
			t.Fatalf("findLive: %v %v", ok, err)
		}
	}); avg != 0 {
		t.Fatalf("findLive allocates %.0f objects per lookup, want 0", avg)
	}
	key = benchKey(len(brs) - 1)
	if avg := testing.AllocsPerRun(1000, func() {
		if child, err := inner.childFor(key); child != uint64(len(brs)+1) || err != nil {
			t.Fatalf("childFor: %d %v", child, err)
		}
	}); avg != 0 {
		t.Fatalf("childFor allocates %.0f objects per lookup, want 0", avg)
	}
}

func TestTreeGetAllocs(t *testing.T) {
	tr := loadedTree(t, benchRows)
	if path, _, _, err := tr.descend(benchKey(0), []core.PageID{}); err != nil || len(path) != 2 {
		t.Fatalf("want a three-level tree, got %d internal levels (err %v)", len(path), err)
	}
	keys := benchKeys(7919)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		i++
		if _, ok, err := tr.Get(keys[i%len(keys)]); !ok || err != nil {
			t.Fatalf("get %s: %v %v", keys[i%len(keys)], ok, err)
		}
	}); avg != 1 {
		t.Fatalf("Get allocates %.0f objects, want 1 (the copy of the value it returns)", avg)
	}
}

// TestPutUpdateSteadyStateAllocs pins the engine half of a commit — Put of an
// existing key, then AppendRecords — with the recorder reset between commits
// the way the pool recycles before-images between real ones. What is left is
// redo: one buffer holding the bytes of the records made from the diff. A
// replace that keeps the value's length writes it in place, and its one span
// is the value bytes that changed; one that changes the length kills the old
// entry and appends a new one, and its spans are the `used` header field, the
// dead flag and the new entry (two or three once neighbours merge).
func TestPutUpdateSteadyStateAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool sheds entries under the race detector; the pin runs in normal builds")
	}
	// A stride of 40 rows is more than a leaf holds, so consecutive updates
	// hit different leaves. The 1024 keys name only benchRows/40 distinct
	// rows, and the 451 updates below visit each up to three times; the
	// new-length input alternates 101- and 102-byte values on each pass over
	// them, so every one of its replaces changes the stored length (the
	// loaded values are 100 bytes). Three appends fit in a leaf's free half:
	// no leaf compacts inside the test.
	const stride = 40
	distinct := benchRows / stride
	for _, c := range []struct {
		name    string
		inPlace bool
		vlen    func(i int) int
	}{
		{"same-length", true, func(int) int { return 100 }},
		{"new-length", false, func(i int) int { return 101 + i/distinct%2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := loadedTree(t, benchRows)
			rec := NewRecorder()
			m := &core.MTR{Txn: 1}
			buf := make([]byte, 102)
			pg0 := func(core.PageID) core.PGID { return 0 }
			keys := benchKeys(stride)
			// usedBytes sums the entry-area bytes in use over the leaves
			// the keys land on; only an append moves it.
			usedBytes := func() int {
				leaves := make(map[core.PageID]bool)
				total := 0
				for _, k := range keys[:distinct] {
					_, id, leaf, err := tr.descend(k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !leaves[id] {
						leaves[id] = true
						total += leaf.used()
					}
				}
				return total
			}
			i := 0
			update := func() {
				i++
				val := buf[:c.vlen(i)]
				val[0]++
				rec.Reset()
				m.Records = m.Records[:0]
				if err := tr.Put(rec, keys[i%len(keys)], val); err != nil {
					t.Fatal(err)
				}
				if err := rec.AppendRecords(m, pg0); err != nil {
					t.Fatal(err)
				}
			}
			for n := 0; n < 50; n++ {
				update()
			}
			const runs = 400
			used := usedBytes()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			avg := testing.AllocsPerRun(runs, update)
			runtime.ReadMemStats(&after)
			perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			grew := usedBytes() - used
			t.Logf("%s update: %.0f objects, %d bytes per Put+AppendRecords; leaves grew %d bytes", c.name, avg, perOp, grew)
			// AllocsPerRun makes runs+1 calls. Each kill-path replace appends
			// at least a 101-byte value's entry; an in-place one appends none.
			if c.inPlace && grew != 0 {
				t.Fatalf("same-length updates grew the leaves by %d bytes: a replace left the in-place path", grew)
			}
			if min := (runs + 1) * leafEntrySize(len(keys[0]), 101); !c.inPlace && grew < min {
				t.Fatalf("new-length updates grew the leaves by %d bytes, want >= %d: a replace skipped the kill-and-append path", grew, min)
			}
			// The spans are found in the recorder's pooled scratch and the
			// reused MTR has room for the records.
			if avg > 1 {
				t.Fatalf("%s update allocates %.0f objects per commit, want <= 1", c.name, avg)
			}
			if perOp >= page.PayloadSize/2 {
				t.Fatalf("%s update allocates %d bytes per commit: a page-sized buffer is back on the path", c.name, perOp)
			}
		})
	}
}

var benchSink []byte

func BenchmarkTreeGet(b *testing.B) {
	tr := loadedTree(b, benchRows)
	keys := benchKeys(7919)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := tr.Get(keys[i%len(keys)])
		if !ok || err != nil {
			b.Fatal(ok, err)
		}
		benchSink = v
	}
}

// BenchmarkTreePutUpdate is one commit's worth of engine work on a cached
// tree: update a row, diff the touched page into redo, stamp, recycle.
func BenchmarkTreePutUpdate(b *testing.B) {
	tr := loadedTree(b, benchRows)
	keys := benchKeys(7919)
	val := make([]byte, 100)
	m := &core.MTR{Txn: 1}
	pg0 := func(core.PageID) core.PGID { return 0 }
	noLSN := func(core.PageID) core.LSN { return 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val[0]++
		rec := NewRecorder()
		m.Records = m.Records[:0]
		if err := tr.Put(rec, keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
		if err := rec.AppendRecords(m, pg0); err != nil {
			b.Fatal(err)
		}
		rec.StampLSNs(noLSN)
	}
}
