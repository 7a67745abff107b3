package replica

import (
	"errors"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/storage"
	"aurora/internal/volume"
)

// heldStack is a one-PG stack whose first three replicas hold every flight
// for hold (a gray-slow delay, which a canceled send abandons), so a commit
// shipped meanwhile reaches the other three and stays short of its 4/6
// quorum until the delay runs out.
func heldStack(t *testing.T, hold time.Duration) (*volume.Fleet, *engine.DB) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	f, err := volume.NewFleet(volume.FleetConfig{Name: "a", Geometry: core.UniformGeometry(1), Net: net, Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	vol := volume.Bootstrap(f, volume.ClientConfig{WriterNode: "writer", WriterAZ: 0})
	db, err := engine.Create(vol, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitHeld(t, f.Replicas(0), vol.VDL())
	for _, n := range f.Replicas(0)[:3] {
		if err := net.SetNodeDelay(n.NodeID(), hold); err != nil {
			t.Fatal(err)
		}
	}
	return f, db
}

// waitHeld waits until every node's SCL reaches lsn.
func waitHeld(t *testing.T, nodes []*storage.Node, lsn core.LSN) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for n.SCL() < lsn {
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck at SCL %d, want %d", n.NodeID(), n.SCL(), lsn)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// putInFlight starts Put k=v2 and returns once the three unheld replicas hold
// it: the commit is framed and shipped, not durable. The channel yields the
// Put's outcome.
func putInFlight(t *testing.T, f *volume.Fleet, db *engine.DB) <-chan error {
	t.Helper()
	vol := db.Volume()
	before := vol.Stats().HighestLSN
	done := make(chan error, 1)
	go func() { done <- db.Put([]byte("k"), []byte("v2")) }()
	deadline := time.Now().Add(5 * time.Second)
	for vol.Stats().HighestLSN == before {
		if time.Now().After(deadline) {
			t.Fatal("Put k=v2 never framed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	waitHeld(t, f.Replicas(0)[3:], vol.Stats().HighestLSN)
	if vdl := vol.VDL(); vdl > before {
		t.Fatalf("VDL %d already past %d with three replicas held", vdl, before)
	}
	return done
}

// TestAttachMidCommitSeesTheCommit: a replica attached while a commit is in
// flight must not serve the page as it was before that commit once the
// commit is durable. The commit's records went to the streams attached
// before it was framed, yet its completion raises the new stream's VDL as
// well; a view seeded below the commit would cache the old page and never
// see the records that change it. That holds as well when a write framed
// after the commit has lost its quorum and pinned the writer's window: the
// commit below the pin still retires.
func TestAttachMidCommitSeesTheCommit(t *testing.T) {
	for _, tc := range []struct {
		name         string
		failBehindIt bool
	}{{"in-flight", false}, {"behind-failed-write", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f, db := heldStack(t, 200*time.Millisecond)
			put := putInFlight(t, f, db)
			if tc.failBehindIt {
				time.Sleep(20 * time.Millisecond) // the unheld replicas' acks reach the writer
				for _, n := range f.Replicas(0)[3:] {
					n.Crash()
				}
				if err := db.Put([]byte("k2"), []byte("x")); !errors.Is(err, engine.ErrDegraded) {
					t.Fatalf("Put with three of six replicas down: %v, want ErrDegraded", err)
				}
			}
			r := Attach(db, f, Config{Name: "replica1", AZ: 1})
			defer r.Close()
			for _, n := range f.Replicas(0)[:3] { // lift the hold: reads need these three
				if err := f.Net().SetNodeDelay(n.NodeID(), 0); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok, err := r.Get([]byte("k")); err != nil || !ok {
				t.Fatalf("read on attach: %v %v", ok, err)
			}
			if err := <-put; err != nil {
				t.Fatal(err)
			}
			vdl := db.Volume().VDL()
			for deadline := time.Now().Add(5 * time.Second); r.VDL() < vdl; {
				if time.Now().After(deadline) {
					t.Fatalf("replica VDL %d never reached the writer's %d", r.VDL(), vdl)
				}
				time.Sleep(100 * time.Microsecond)
			}
			if v, ok, err := r.Get([]byte("k")); err != nil || !ok || string(v) != "v2" {
				t.Fatalf("replica at VDL %d reads k=%q (ok=%v err=%v), want the durable v2", r.VDL(), v, ok, err)
			}
		})
	}
}

// TestAttachDuringWriterCrashReturns: Attach waits for the commits in flight
// to become durable, and a writer that crashes meanwhile ends that wait; the
// replica then detaches as its stream ends.
func TestAttachDuringWriterCrashReturns(t *testing.T) {
	f, db := heldStack(t, 10*time.Second)
	put := putInFlight(t, f, db)
	attached := make(chan *Replica, 1)
	go func() { attached <- Attach(db, f, Config{Name: "replica1", AZ: 1}) }()
	// Let Attach reach its wait. A crash that comes first is bounded too:
	// the wait then returns at once.
	time.Sleep(10 * time.Millisecond)
	db.Crash()
	var r *Replica
	select {
	case r = <-attached:
	case <-time.After(2 * time.Second):
		t.Fatal("Attach still waiting 2s after its writer crashed")
	}
	defer r.Close()
	select {
	case <-r.done:
	case <-time.After(2 * time.Second):
		t.Fatal("replica attached to a crashed writer still consuming its stream")
	}
	if _, _, err := r.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("read after the writer's crash: %v, want ErrClosed", err)
	}
	if err := <-put; err == nil {
		t.Fatal("Put k=v2 acknowledged although its writer crashed short of quorum")
	}
}

// TestAttachToDegradedWriterReturns: a writer whose write lost its quorum can
// never make its highest LSN durable. Attach must not wait for it: it seeds
// its view from the durable state below the failed write and serves reads.
func TestAttachToDegradedWriterReturns(t *testing.T) {
	f, db := heldStack(t, 0) // nothing held: three replicas crash instead
	for _, n := range f.Replicas(0)[:3] {
		n.Crash()
	}
	if err := db.Put([]byte("k"), []byte("v2")); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Put with three of six replicas down: %v, want ErrDegraded", err)
	}
	attached := make(chan *Replica, 1)
	go func() { attached <- Attach(db, f, Config{Name: "replica1", AZ: 1}) }()
	var r *Replica
	select {
	case r = <-attached:
	case <-time.After(2 * time.Second):
		t.Fatal("Attach to a writer with a failed write still waiting after 2s")
	}
	defer r.Close()
	if v, ok, err := r.Get([]byte("k")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("replica reads k=%q (ok=%v err=%v), want the durable v1", v, ok, err)
	}
}
