package replica

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

// frameValue is a row value that names its key and version and carries a
// checksum of both, padded to a realistic row: a page image assembled from a
// recycled frame's leftovers cannot pass for it.
func frameValue(key string, version int) []byte {
	body := fmt.Sprintf("%s|%08d|%s", key, version, strings.Repeat("x", 64))
	return []byte(fmt.Sprintf("%s|%08x", body, crc32.ChecksumIEEE([]byte(body))))
}

// checkFrameValue returns the version a value read for key carries, or an
// error when it is not a whole value of that key.
func checkFrameValue(key string, v []byte) (int, error) {
	s := string(v)
	cut := strings.LastIndexByte(s, '|')
	if cut < 0 {
		return 0, fmt.Errorf("no checksum in %q", s)
	}
	body := s[:cut]
	if sum := fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(body))); sum != s[cut+1:] {
		return 0, fmt.Errorf("checksum %s, value says %s", sum, s[cut+1:])
	}
	parts := strings.SplitN(body, "|", 3)
	if len(parts) != 3 || parts[0] != key {
		return 0, fmt.Errorf("value of %q read for key %q", parts[0], key)
	}
	return strconv.Atoi(parts[1])
}

// TestRecycledFrameNeverReachesReader runs the writer's Gets and Puts and a
// replica's Gets against 4-frame caches over a tree several times larger, so
// that nearly every read evicts a page and refills its frame. Every value read
// must be a whole value of the key asked for, at a version that was written
// and no older than one that reader saw before: a frame recycled while a
// reader still held its page would fail that, and under -race (`make race`
// runs it twenty times) shows as a race between the storage node's copy into
// the frame and the reader.
func TestRecycledFrameNeverReachesReader(t *testing.T) {
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "r", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	db, err := engine.Create(vol, engine.Config{CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const keys, writers, readers, ops = 160, 2, 4, 150
	key := func(i int) string { return fmt.Sprintf("frame%04d", i) }
	var written [keys]atomic.Int64 // highest version committed per key
	for i := 0; i < keys; i++ {
		if err := db.Put([]byte(key(i)), frameValue(key(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	r := Attach(db, f, Config{Name: "replica1", AZ: 1, CachePages: 4})
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, writers+2*readers)
	// Writers own disjoint keys, so no row lock ever waits.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				i := (n*7+w)%(keys/writers)*writers + w
				v := int(written[i].Load()) + 1
				if err := db.Put([]byte(key(i)), frameValue(key(i), v)); err != nil {
					errs <- fmt.Errorf("put %s: %w", key(i), err)
					return
				}
				written[i].Store(int64(v))
			}
		}(w)
	}
	read := func(name string, get func([]byte) ([]byte, bool, error), seed int) {
		defer wg.Done()
		var seen [keys]int
		for n := 0; n < ops; n++ {
			i := (n*37 + seed*11) % keys
			// The bound is taken after the read: no version read can be newer
			// than the last one committed by then, which its writer may not
			// have recorded yet.
			v, ok, err := get([]byte(key(i)))
			bound := int(written[i].Load()) + 1
			if err != nil || !ok {
				errs <- fmt.Errorf("%s get %s: ok=%v err=%v", name, key(i), ok, err)
				return
			}
			ver, err := checkFrameValue(key(i), v)
			if err != nil {
				errs <- fmt.Errorf("%s get %s: %w", name, key(i), err)
				return
			}
			if ver < seen[i] || ver > bound {
				errs <- fmt.Errorf("%s get %s: version %d, saw %d before, %d written", name, key(i), ver, seen[i], bound)
				return
			}
			seen[i] = ver
		}
	}
	for g := 0; g < readers; g++ {
		wg.Add(2)
		go read("writer", db.Get, g)
		go read("replica", r.Get, g+readers)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ws, rs := db.Stats().Cache, r.Stats().Cache
	t.Logf("writer cache: %d misses, %d evictions, %d overflows; replica cache: %d misses, %d evictions",
		ws.Misses, ws.Evictions, ws.Overflow, rs.Misses, rs.Evictions)
	if ws.Evictions == 0 || rs.Evictions == 0 {
		t.Fatalf("no eviction: writer %d, replica %d — the frames were never recycled", ws.Evictions, rs.Evictions)
	}
}
