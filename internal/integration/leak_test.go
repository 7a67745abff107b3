package integration

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"aurora"
	"aurora/internal/disk"
	"aurora/internal/mysql"
	"aurora/internal/netsim"
)

// settleGoroutines waits for the runtime's goroutine count to stop moving
// and returns it. Background GC workers and timer goroutines come and go;
// sampling until two consecutive readings agree filters that noise.
func settleGoroutines() int {
	prev := -1
	for i := 0; i < 50; i++ {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
		time.Sleep(10 * time.Millisecond)
	}
	return prev
}

// mysqlStack opens a MySQL baseline DB on a network of its own.
func mysqlStack(t *testing.T, name string, mirrored bool) *mysql.DB {
	t.Helper()
	db, err := mysql.New(mysql.Config{
		Instance: netsim.NodeID(name), Mirrored: mirrored, StandbyAZ: 1,
		Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestNoGoroutineLeaks provisions a full cluster — background storage
// loops, replicas, tracing — drives it through the paths that spawn
// goroutines (group commits, hedged reads, deadline-detached commits,
// failover machinery), does the same with the MySQL baseline (its
// group-commit and binlog apply loops), then closes everything and requires
// the goroutine count to return to its pre-cluster baseline. Every background
// loop in engine/volume/storage runs under a context now, and every MySQL DB
// stops its loops in Close; this is the regression net that keeps it so.
func TestNoGoroutineLeaks(t *testing.T) {
	base := settleGoroutines()

	c, err := aurora.NewCluster(aurora.Options{Name: "leak", TraceEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.AddReplica("r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		if err := c.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot reads go straight to storage (hedged read path).
	snap := c.BeginSnapshot()
	if _, _, err := snap.Get([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	snap.Abort()
	if _, _, err := rep.Get([]byte("k001")); err != nil {
		t.Fatal(err)
	}
	// A deadline-detached commit leaves a watcher goroutine behind by
	// design; Close must drain it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	tx := c.Begin()
	if err := tx.Put([]byte("detach"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitCtx(ctx); !errors.Is(err, aurora.ErrDeadlineExceeded) {
		t.Fatalf("CommitCtx under expired deadline: %v", err)
	}
	cancel()
	rep.Close()
	c.Close()

	// The MySQL baseline, plain and mirrored: each DB runs a group-commit
	// loop, and the mirrored primary ships its binlog to a replica DB whose
	// apply loop commits through that replica's own.
	plain, mirrored, binlogReplica := mysqlStack(t, "plain", false), mysqlStack(t, "mirrored", true), mysqlStack(t, "binlog-replica", false)
	link := mirrored.AttachReplica(binlogReplica)
	for _, db := range []*mysql.DB{plain, mirrored} {
		for i := 0; i < 16; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !link.Drain(5 * time.Second) {
		t.Fatal("binlog replica never caught up")
	}
	plain.Close()
	mirrored.Close()
	binlogReplica.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		n := settleGoroutines()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			var buf strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", base, n, buf.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
