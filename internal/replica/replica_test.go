package replica

import (
	"fmt"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

func testStack(t *testing.T) (*volume.Fleet, *engine.DB) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "r", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	db, err := engine.Create(vol, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return f, db
}

func waitVisible(t *testing.T, r *Replica, key, want string) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		v, ok, err := r.Get([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if ok && string(v) == want {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q=%q not visible on replica (got %q ok=%v)", key, want, v, ok)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestReplicaSeesCommittedWrites(t *testing.T) {
	f, db := testStack(t)
	r := Attach(db, f, Config{Name: "replica1", AZ: 1})
	defer r.Close()
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitVisible(t, r, "k", "v1")
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitVisible(t, r, "k", "v2")
	if r.VDL() == 0 {
		t.Fatal("replica VDL never advanced")
	}
}

func TestReplicaAppliesToCachedPages(t *testing.T) {
	f, db := testStack(t)
	r := Attach(db, f, Config{Name: "replica1", AZ: 1})
	defer r.Close()
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("row%02d", i)), []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	waitVisible(t, r, "row19", "a")
	// Warm the replica cache, then keep writing: records should be applied
	// in place rather than discarded.
	if err := r.WarmUp(nil, nil); err != nil {
		t.Fatal(err)
	}
	before := r.Stats().Applied
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("row%02d", i)), []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	waitVisible(t, r, "row19", "b")
	if r.Stats().Applied <= before {
		t.Fatalf("no records applied to warm cache (applied=%d)", r.Stats().Applied)
	}
	// And the data read from the cache is correct for every row.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("row%02d", i)
		v, ok, err := r.Get([]byte(k))
		if err != nil || !ok || string(v) != "b" {
			t.Fatalf("%s: %q %v %v", k, v, ok, err)
		}
	}
}

func TestReplicaDiscardsUncachedRecords(t *testing.T) {
	f, db := testStack(t)
	r := Attach(db, f, Config{Name: "replica1", AZ: 1, CachePages: 4})
	defer r.Close()
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("x%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitVisible(t, r, "x049", "v")
	if r.Stats().Discarded == 0 {
		t.Fatal("cold replica should discard records for uncached pages")
	}
}

func TestReplicaLagIsSmall(t *testing.T) {
	f, db := testStack(t)
	r := Attach(db, f, Config{Name: "replica1", AZ: 1})
	defer r.Close()
	if err := db.Put([]byte("seed"), []byte("s")); err != nil {
		t.Fatal(err)
	}
	waitVisible(t, r, "seed", "s")
	var worst time.Duration
	for i := 0; i < 10; i++ {
		val := fmt.Sprintf("v%d", i)
		if err := db.Put([]byte("lagkey"), []byte(val)); err != nil {
			t.Fatal(err)
		}
		if lag := waitVisible(t, r, "lagkey", val); lag > worst {
			worst = lag
		}
	}
	// The paper reports ~2.6–5.4ms lag at scale; in-process with a fast
	// network the bound is generous but still demonstrates "well under a
	// second", versus MySQL's seconds-to-minutes.
	if worst > 500*time.Millisecond {
		t.Fatalf("replica lag %v too high", worst)
	}
}

func TestMultipleReplicas(t *testing.T) {
	f, db := testStack(t)
	var reps []*Replica
	for i := 0; i < 4; i++ {
		r := Attach(db, f, Config{Name: netsim.NodeID(fmt.Sprintf("rep%d", i)), AZ: netsim.AZ(i % 3)})
		defer r.Close()
		reps = append(reps, r)
	}
	if err := db.Put([]byte("fan"), []byte("out")); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		waitVisible(t, r, "fan", "out")
	}
}

func TestReplicaScan(t *testing.T) {
	f, db := testStack(t)
	r := Attach(db, f, Config{Name: "replica1", AZ: 1})
	defer r.Close()
	for i := 0; i < 30; i++ {
		if err := db.Put([]byte(fmt.Sprintf("s%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitVisible(t, r, "s029", "v")
	count := 0
	if err := r.Scan([]byte("s010"), []byte("s020"), func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("scanned %d rows, want 10", count)
	}
}

func TestReplicaCloseIsCleanAndIdempotent(t *testing.T) {
	f, db := testStack(t)
	r := Attach(db, f, Config{Name: "replica1", AZ: 1})
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if _, _, err := r.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("read after close: %v", err)
	}
	// The writer keeps working after a replica detaches.
	if err := db.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaAddsNoStorageWrites(t *testing.T) {
	f, db := testStack(t)
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("pre%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A Put returns at four acks of six: wait out the fifth and sixth
	// deliveries, or their disk writes land inside the measurement (6 of 300
	// runs at PR 24).
	for g := 0; g < f.PGs(); g++ {
		tail := db.Volume().DurableTail(core.PGID(g))
		for i, deadline := 0, time.Now().Add(5*time.Second); i < 6; {
			switch {
			case f.Node(core.PGID(g), i).SCL() >= tail:
				i++
			case time.Now().After(deadline):
				t.Fatalf("pg %d replica %d never caught up to %d", g, i, tail)
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	var before uint64
	for g := 0; g < f.PGs(); g++ {
		for i := 0; i < 6; i++ {
			before += f.Node(core.PGID(g), i).Disk().Stats().Writes
		}
	}
	r := Attach(db, f, Config{Name: "replica1", AZ: 1})
	defer r.Close()
	waitVisible(t, r, "pre9", "v")
	if err := r.WarmUp(nil, nil); err != nil {
		t.Fatal(err)
	}
	var after uint64
	for g := 0; g < f.PGs(); g++ {
		for i := 0; i < 6; i++ {
			after += f.Node(core.PGID(g), i).Disk().Stats().Writes
		}
	}
	// Replica activity (attach + reads) must not add disk writes: read
	// replicas add no storage or write cost (§4.2.4).
	if after != before {
		t.Fatalf("replica caused %d storage writes", after-before)
	}
}
