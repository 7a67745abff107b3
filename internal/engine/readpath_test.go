package engine

import (
	"bytes"
	"fmt"
	"testing"
)

// TestGetMissAllocatesOnlyTheValue pins the read path's cost from the
// engine's side: a Get whose leaf is not cached — the victim evicted, the page
// read from a storage node into the victim's frame, cached, the row found —
// allocates one object, the copy of the value it returns. The store and its
// pins live in the transaction, the frame comes off the cache's free list, and
// the volume read allocates nothing (volume.TestReadPageMissZeroAllocs).
func TestGetMissAllocatesOnlyTheValue(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own; the pin runs in normal builds")
	}
	_, db := testDB(t, Config{CachePages: 8})
	const rows = 2000
	keys, vals := make([][]byte, rows), make([][]byte, rows)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("row%06d", i))
		vals[i] = bytes.Repeat([]byte{byte(i)}, 100)
		if err := db.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	defer tx.Abort()
	i := 0
	get := func() {
		i = (i + 97) % rows // strides across leaves: eight cached pages cannot hold the next one
		v, ok, err := tx.Get(keys[i])
		if err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("get %s: ok=%v err=%v", keys[i], ok, err)
		}
	}
	for n := 0; n < 100; n++ { // fill the free list and the read-state pool
		get()
	}
	const runs = 500
	before := db.Stats()
	avg := testing.AllocsPerRun(runs, get)
	after := db.Stats()
	if misses := after.Cache.Misses - before.Cache.Misses; misses < runs {
		t.Fatalf("%d cache misses in %d Gets: the leaves were cached", misses, runs)
	}
	if reads := after.Reads - before.Reads; reads < runs {
		t.Fatalf("%d volume reads in %d Gets", reads, runs)
	}
	if avg != 1 {
		t.Fatalf("a Get that misses on its leaf allocates %.2f objects, want 1 (the value it returns)", avg)
	}
}
