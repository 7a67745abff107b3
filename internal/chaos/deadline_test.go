package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/volume"
)

// TestCommitDeadlineUnderGraySlowNode is the deadline-vs-durability drill:
// with gray-slow storage nodes in the writer's AZ, a commit under a tight
// deadline returns ErrDeadlineExceeded — but the commit is not withdrawn.
// Its MTR still ships and becomes durable (visible to a snapshot read at
// the advanced VDL), the VDL stays monotone throughout, and the hedged
// read path actively cancels losing attempts (HedgeCancels > 0).
func TestCommitDeadlineUnderGraySlowNode(t *testing.T) {
	net := netsim.New(netsim.Datacenter())
	f, err := volume.NewFleet(volume.FleetConfig{
		Name: "dl", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	db, err := engine.Create(vol, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)

	// VDL monotonicity watcher: samples concurrently for the whole test.
	var monotone atomic.Bool
	monotone.Store(true)
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		last := vol.VDL()
		for {
			select {
			case <-stopMon:
				return
			default:
			}
			v := vol.VDL()
			if v < last {
				monotone.Store(false)
				return
			}
			last = v
			time.Sleep(sampleInterval)
		}
	}()

	// Seed rows, then turn both same-AZ replicas gray-slow: the writer's
	// locality-ordered read candidates are now the worst choices, and the
	// 4/6 write quorum must resolve through the other two AZs.
	for i := 0; i < 8; i++ {
		if err := db.Put([]byte(fmt.Sprintf("seed%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range []int{0, 1} {
		if err := net.SetNodeDelay(f.Node(0, idx).NodeID(), 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// A commit under a deadline far below the cross-AZ round trip must
	// detach with ErrDeadlineExceeded. The deadline can occasionally fire
	// before the apply (a clean abort: nothing durable, nothing visible),
	// so retry with fresh keys until a detach-after-apply instance is
	// caught — detected by the applied write being visible in the tree.
	var detachedKey []byte
	for attempt := 0; attempt < 20 && detachedKey == nil; attempt++ {
		key := []byte(fmt.Sprintf("detach%02d", attempt))
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
		tx := db.Begin()
		if err := tx.Put(key, []byte("survives")); err != nil {
			t.Fatal(err)
		}
		err := tx.CommitCtx(ctx)
		cancel()
		if err == nil {
			continue // quorum beat the deadline; tighten by retrying
		}
		if !errors.Is(err, engine.ErrDeadlineExceeded) {
			t.Fatalf("commit under deadline: got %v, want ErrDeadlineExceeded", err)
		}
		if _, ok, _ := db.Get(key); ok {
			detachedKey = key
		}
	}
	if detachedKey == nil {
		t.Fatal("never caught a detached-after-apply commit")
	}

	// The detached commit must still become durable: a later unbounded
	// commit durably acks, and VDL contiguity puts the detached MTR at or
	// below that CPL — so a snapshot read (served from storage at the
	// durable point, never the writer's cache) must see it.
	if err := db.Put([]byte("after-detach"), []byte("v")); err != nil {
		t.Fatalf("follow-up commit after detach: %v", err)
	}
	snap := db.BeginSnapshot()
	v, ok, err := snap.Get(detachedKey)
	snap.Abort()
	if err != nil || !ok || string(v) != "survives" {
		t.Fatalf("detached commit not durable: val=%q ok=%v err=%v", v, ok, err)
	}

	// Hedged-read load against the gray-slow preferred replicas: winners
	// must actively cancel the losing attempts they raced.
	for i := 0; i < 300; i++ {
		snap := db.BeginSnapshot()
		if _, _, err := snap.Get([]byte(fmt.Sprintf("seed%02d", i%8))); err != nil {
			t.Fatalf("hedged read %d: %v", i, err)
		}
		snap.Abort()
	}
	hs := f.Health().Stats()
	if hs.Hedges == 0 {
		t.Fatal("no hedges launched against gray-slow replicas")
	}
	if hs.HedgeCancels == 0 {
		t.Fatal("winning hedges never canceled their losing attempts")
	}

	close(stopMon)
	<-monDone
	if !monotone.Load() {
		t.Fatal("VDL regressed during the drill")
	}
}
