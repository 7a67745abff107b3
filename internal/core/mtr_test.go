package core

import (
	"context"
	"sync"
	"testing"
)

// decodedBatch is one per-PG batch of a framed group as a test sees it:
// the destination PG plus the records decoded back out of the wire image.
type decodedBatch struct {
	PG      PGID
	Records []Record
}

// frameOne frames one MTR the way production does — FrameGroup into an
// arena — and reads every batch back through BatchView (length check, CRC,
// record walk), so each caller doubles as an encode/decode round-trip. The
// records are deep-copied out of the arena before the group is released.
func frameOne(f *Framer, m *MTR) ([]decodedBatch, LSN, error) {
	g, err := f.FrameGroup(context.Background(), []*MTR{m})
	if err != nil {
		return nil, ZeroLSN, err
	}
	defer g.Release()
	batches := make([]decodedBatch, 0, len(g.Batches))
	for i := range g.Batches {
		v, n, err := ParseBatchView(g.Batches[i].Wire)
		if err != nil {
			return nil, ZeroLSN, err
		}
		if n != len(g.Batches[i].Wire) {
			return nil, ZeroLSN, ErrBadLength
		}
		if err := v.Verify(); err != nil {
			return nil, ZeroLSN, err
		}
		b := decodedBatch{PG: v.PG()}
		if err := v.EachRecord(func(r *Record) bool {
			b.Records = append(b.Records, r.Clone())
			return true
		}); err != nil {
			return nil, ZeroLSN, err
		}
		if len(b.Records) != v.NumRecords() {
			return nil, ZeroLSN, ErrBadLength
		}
		batches = append(batches, b)
	}
	return batches, g.CPLs[0], nil
}

func TestFramerSingleMTR(t *testing.T) {
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	m := &MTR{Txn: 1}
	m.AddDelta(0, 1, 0, []byte("a"))
	m.AddDelta(0, 2, 4, []byte("b"))
	m.AddDelta(1, 100, 8, []byte("c"))
	batches, cpl, err := frameOne(f, m)
	if err != nil {
		t.Fatal(err)
	}
	if cpl != 3 {
		t.Fatalf("cpl %d, want 3", cpl)
	}
	if len(batches) != 2 {
		t.Fatalf("batches %d, want 2 (one per PG)", len(batches))
	}
	// PG 0 chain: 1 -> 2 with backlinks 0 -> 1.
	b0 := batches[0]
	if b0.PG != 0 || len(b0.Records) != 2 {
		t.Fatalf("pg0 batch wrong: %+v", b0)
	}
	if b0.Records[0].LSN != 1 || b0.Records[0].PrevLSN != 0 {
		t.Fatalf("pg0 rec0: %v", b0.Records[0].String())
	}
	if b0.Records[1].LSN != 2 || b0.Records[1].PrevLSN != 1 {
		t.Fatalf("pg0 rec1: %v", b0.Records[1].String())
	}
	// PG 1 gets LSN 3 with a fresh chain, and is the CPL.
	b1 := batches[1]
	if b1.Records[0].LSN != 3 || b1.Records[0].PrevLSN != 0 || !b1.Records[0].IsCPL() {
		t.Fatalf("pg1 rec: %v", b1.Records[0].String())
	}
	// Only the final record of the MTR is a CPL.
	if b0.Records[0].IsCPL() || b0.Records[1].IsCPL() {
		t.Fatal("non-final record tagged CPL")
	}
}

func TestFramerChainsAcrossMTRs(t *testing.T) {
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	m1 := &MTR{Txn: 1}
	m1.AddDelta(5, 1, 0, []byte("x"))
	if _, _, err := frameOne(f, m1); err != nil {
		t.Fatal(err)
	}
	m2 := &MTR{Txn: 2}
	m2.AddDelta(5, 2, 0, []byte("y"))
	batches, _, err := frameOne(f, m2)
	if err != nil {
		t.Fatal(err)
	}
	if got := batches[0].Records[0].PrevLSN; got != 1 {
		t.Fatalf("backlink across MTRs = %d, want 1", got)
	}
	if f.ChainTail(5) != 2 {
		t.Fatalf("chain tail %d, want 2", f.ChainTail(5))
	}
	if f.ChainTail(99) != ZeroLSN {
		t.Fatal("unknown PG should have zero tail")
	}
}

func TestFramerSeededChains(t *testing.T) {
	f := NewFramer(NewAllocator(500, 0), map[PGID]LSN{3: 480})
	m := &MTR{Txn: 9}
	m.AddDelta(3, 7, 0, []byte("z"))
	batches, cpl, err := frameOne(f, m)
	if err != nil {
		t.Fatal(err)
	}
	if cpl != 501 {
		t.Fatalf("cpl %d, want 501", cpl)
	}
	if batches[0].Records[0].PrevLSN != 480 {
		t.Fatalf("seeded backlink %d, want 480", batches[0].Records[0].PrevLSN)
	}
}

func TestFramerEmptyMTR(t *testing.T) {
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	if _, _, err := frameOne(f, &MTR{}); err != ErrEmptyMTR {
		t.Fatalf("got %v, want ErrEmptyMTR", err)
	}
}

// Concurrent MTRs must produce per-PG chains whose backlink order matches
// LSN order — the invariant the storage tier's gap tracking relies on.
func TestFramerConcurrentChainConsistency(t *testing.T) {
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	const workers, perWorker = 8, 200
	var mu sync.Mutex
	var all []Record
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(txn uint64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := &MTR{Txn: txn}
				m.AddDelta(PGID(i%3), PageID(i), 0, []byte{byte(i)})
				m.AddDelta(PGID((i+1)%3), PageID(i), 0, []byte{byte(i)})
				batches, _, err := frameOne(f, m)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, b := range batches {
					all = append(all, b.Records...)
				}
				mu.Unlock()
			}
		}(uint64(w))
	}
	wg.Wait()

	// Replay every record through per-PG gap trackers: each chain must be
	// complete and linear.
	trackers := map[PGID]*GapTracker{}
	highest := map[PGID]LSN{}
	for pg := PGID(0); pg < 3; pg++ {
		trackers[pg] = NewGapTracker(ZeroLSN)
	}
	for _, r := range all {
		trackers[r.PG].Add(r.PrevLSN, r.LSN)
		if r.LSN > highest[r.PG] {
			highest[r.PG] = r.LSN
		}
	}
	for pg, tr := range trackers {
		if tr.SCL() != highest[pg] {
			t.Fatalf("pg %d: chain incomplete, SCL %d highest %d pending %d",
				pg, tr.SCL(), highest[pg], tr.PendingCount())
		}
	}
	// Exactly one CPL per MTR.
	cpls := 0
	for _, r := range all {
		if r.IsCPL() {
			cpls++
		}
	}
	if cpls != workers*perWorker {
		t.Fatalf("cpl count %d, want %d", cpls, workers*perWorker)
	}
}

func TestMTRHelpers(t *testing.T) {
	m := &MTR{Txn: 4}
	if !m.Empty() {
		t.Fatal("new MTR should be empty")
	}
	m.AddInit(1, 2, []byte("img"))
	m.AddMeta(RecTxnCommit, 1)
	if m.Empty() || len(m.Records) != 2 {
		t.Fatal("records not appended")
	}
	if m.Records[0].Type != RecPageInit || m.Records[1].Type != RecTxnCommit {
		t.Fatal("record types wrong")
	}
	if m.Records[0].Txn != 4 || m.Records[1].Txn != 4 {
		t.Fatal("txn id not propagated")
	}
}
