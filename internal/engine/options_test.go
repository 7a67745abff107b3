package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/page"
	"aurora/internal/volume"
)

func TestSyncCommitOptionCorrectness(t *testing.T) {
	_, db := testDB(t, Config{SyncCommit: true})
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("s%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if db.VDL() == 0 {
		t.Fatal("VDL did not advance")
	}
	for i := 0; i < 20; i += 5 {
		v, ok, err := db.Get([]byte(fmt.Sprintf("s%02d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("get: %q %v %v", v, ok, err)
		}
	}
	// Snapshot reads work under sync commit too.
	snap := db.BeginSnapshot()
	defer snap.Abort()
	if _, ok, err := snap.Get([]byte("s00")); err != nil || !ok {
		t.Fatalf("snapshot get: %v %v", ok, err)
	}
}

func TestFullPageWritesOptionShipsImages(t *testing.T) {
	f, db := testDB(t, Config{FullPageWrites: true})
	s := db.Subscribe()
	defer s.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The stream must contain full page-image records, each a whole
	// payload, instead of small deltas.
	takeUntil(t, s, 2*time.Second, func(r core.Record) bool {
		if r.Type == core.RecPageDelta {
			t.Fatal("delta record under FullPageWrites")
		}
		if r.Type != core.RecPageInit {
			return false
		}
		if len(r.Data) != page.PayloadSize {
			t.Fatalf("init record %d bytes, want full payload %d", len(r.Data), page.PayloadSize)
		}
		return true
	})
	// Data still correct, including from cold storage.
	db.Cache().Invalidate()
	v, ok, err := db.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("cold get: %q %v %v", v, ok, err)
	}
	_ = f
}

func TestFullPageWritesSurviveRecovery(t *testing.T) {
	f, db := testDB(t, Config{FullPageWrites: true})
	for i := 0; i < 15; i++ {
		if err := db.Put([]byte(fmt.Sprintf("fp%02d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()
	db2, _, err := Recover(context.Background(), f, volume.ClientConfig{WriterNode: "w2", WriterAZ: 0}, Config{FullPageWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 15; i += 3 {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("fp%02d", i)))
		if err != nil || !ok || string(v) != "x" {
			t.Fatalf("get after recovery: %q %v %v", v, ok, err)
		}
	}
}

func TestFeedMultipleSubscribers(t *testing.T) {
	_, db := testDB(t, Config{})
	s1, s2 := db.Subscribe(), db.Subscribe()
	defer s2.Close()
	isCommit := func(r core.Record) bool { return r.Type == core.RecTxnCommit }
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	takeUntil(t, s1, 2*time.Second, isCommit)
	// Close one stream; the other keeps receiving.
	s1.Close()
	s1.Close() // idempotent
	if _, _, ok := s1.Take(nil); ok {
		t.Fatal("closed stream still open")
	}
	tx := db.Begin()
	if err := tx.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	takeUntil(t, s2, 2*time.Second, commitOf(tx.ID()))
}

// takeUntil drains s until found accepts a taken record and returns that
// record and the stream VDL it was taken at; it fails the test after timeout.
func takeUntil(t *testing.T, s *Stream, timeout time.Duration, found func(core.Record) bool) (core.Record, core.LSN) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case <-s.Wake():
			recs, vdl, ok := s.Take(nil)
			if !ok {
				t.Fatal("stream ended")
			}
			for _, r := range recs {
				if found(r) {
					return r, vdl
				}
			}
		case <-deadline:
			t.Fatalf("record not taken within %v (%d buffered)", timeout, s.Buffered())
		}
	}
}

// commitOf matches the commit record of transaction txn.
func commitOf(txn uint64) func(core.Record) bool {
	return func(r core.Record) bool { return r.Type == core.RecTxnCommit && r.Txn == txn }
}

// TestStreamAppendTakeAllocatesNothing pins a stream's steady state: the
// framer appends a group, a completion publishes the group before it, and
// the consumer takes into the buffer it reuses, leaving the newest group
// behind. Neither the stream's buffer nor the consumer's regrows.
func TestStreamAppendTakeAllocatesNothing(t *testing.T) {
	ss := &streams{}
	s := &Stream{owner: ss, wake: make(chan struct{}, 1)}
	ss.list = []*Stream{s}
	m := &core.MTR{Records: make([]core.Record, 3)}
	group := []*core.MTR{m}
	var lsn core.LSN
	var taken []core.Record
	step := func() {
		for i := range m.Records {
			lsn++
			m.Records[i].LSN = lsn
		}
		ss.append(group)
		ss.publish(lsn - core.LSN(len(m.Records)))
		var ok bool
		if taken, _, ok = s.Take(taken[:0]); !ok {
			t.Fatal("stream ended")
		}
		<-s.Wake()
	}
	step() // the buffers' first growth
	step()
	// (testing.AllocsPerRun rounds to whole objects per run: a buffer
	// regrown every few steps would read 0.)
	const steps = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if objects := after.Mallocs - before.Mallocs; objects > 4 { // slack for the runtime's own
		t.Fatalf("%d objects over %d appends and takes, want 0", objects, steps)
	}
	if len(taken) != len(m.Records) || s.Buffered() != len(m.Records) {
		t.Fatalf("took %d records with %d left, want one group each", len(taken), s.Buffered())
	}
}
