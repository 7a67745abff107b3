package workload

import (
	"math/rand"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

func auroraDB(t *testing.T) DB {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "w", Geometry: core.UniformGeometry(2), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	db, err := engine.Create(vol, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return Of(db.Begin)
}

func TestKeyDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{N: 100}
	for i := 0; i < 1000; i++ {
		k := u.Next(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("uniform out of range: %d", k)
		}
	}
	h := HotSpot{N: 1000, HotKeys: 5, HotProb: 0.5}
	hot := 0
	for i := 0; i < 10000; i++ {
		if h.Next(rng) < 5 {
			hot++
		}
	}
	if hot < 4000 || hot > 6000 {
		t.Fatalf("hot fraction %d/10000, want ~5000", hot)
	}
	if u.Rows() != 100 || h.Rows() != 1000 {
		t.Fatal("Rows() wrong")
	}
}

func TestLoadAndRun(t *testing.T) {
	db := auroraDB(t)
	if err := Load(db, 200, 64); err != nil {
		t.Fatal(err)
	}
	// All rows present.
	tx := db.Begin()
	count := 0
	if err := tx.Scan(Key(0), nil, func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if count != 200 {
		t.Fatalf("loaded %d rows", count)
	}

	mix := SysbenchOLTP(200)
	res := Run(db, mix, Options{Clients: 4, Txns: 25, Seed: 42})
	if res.Transactions != 100 {
		t.Fatalf("transactions %d, want 100", res.Transactions)
	}
	if res.Errors != 0 {
		t.Fatalf("errors %d", res.Errors)
	}
	if res.TPS() <= 0 {
		t.Fatal("zero TPS")
	}
	if res.Latency.Count() != 100 {
		t.Fatalf("latency samples %d", res.Latency.Count())
	}
	if res.ReadLatency.Count() == 0 || res.WriteLatency.Count() == 0 {
		t.Fatal("per-op latencies missing")
	}
	if res.WritesPerSec(mix) <= 0 || res.ReadsPerSec(mix) <= 0 {
		t.Fatal("derived rates zero")
	}
}

func TestRunForDuration(t *testing.T) {
	db := auroraDB(t)
	if err := Load(db, 50, 32); err != nil {
		t.Fatal(err)
	}
	res := Run(db, SysbenchWriteOnly(50), Options{Clients: 2, Duration: 100 * time.Millisecond, Seed: 1})
	if res.Transactions == 0 {
		t.Fatal("no transactions in timed run")
	}
	if res.Elapsed < 100*time.Millisecond {
		t.Fatalf("elapsed %v", res.Elapsed)
	}
}

func TestHotContentionStillCompletes(t *testing.T) {
	db := auroraDB(t)
	if err := Load(db, 100, 32); err != nil {
		t.Fatal(err)
	}
	mix := TPCCLike(100, 2)
	res := Run(db, mix, Options{Clients: 8, Txns: 10, Seed: 3})
	if res.Transactions+res.Errors != 80 {
		t.Fatalf("txns %d errors %d", res.Transactions, res.Errors)
	}
	if res.Transactions == 0 {
		t.Fatal("hot contention starved everything")
	}
}

func TestScanMix(t *testing.T) {
	db := auroraDB(t)
	if err := Load(db, 100, 16); err != nil {
		t.Fatal(err)
	}
	mix := Mix{ScanRows: 10, Dist: Uniform{N: 100}}
	res := Run(db, mix, Options{Clients: 1, Txns: 5, Seed: 9})
	if res.Transactions != 5 {
		t.Fatalf("transactions %d", res.Transactions)
	}
}
