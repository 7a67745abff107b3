package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAllocatorSequential(t *testing.T) {
	a := NewAllocator(ZeroLSN, 1000)
	first, err := a.Alloc(context.Background(), 1)
	if err != nil || first != 1 {
		t.Fatalf("first alloc: %v %v", first, err)
	}
	second, err := a.Alloc(context.Background(), 5)
	if err != nil || second != 2 {
		t.Fatalf("second alloc: %v %v", second, err)
	}
	if got := a.HighestAllocated(); got != 6 {
		t.Fatalf("highest = %d, want 6", got)
	}
}

// allocBlocks reports whether an Alloc of n waits on the allocation limit:
// given a few milliseconds, it gives up with its context instead of
// returning an LSN.
func allocBlocks(a *Allocator, n int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := a.Alloc(ctx, n)
	return errors.Is(err, context.DeadlineExceeded)
}

func TestAllocatorLALBackpressure(t *testing.T) {
	a := NewAllocator(ZeroLSN, 10)
	if _, err := a.Alloc(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	// Window full: a blocking alloc must stall until VDL advances.
	if !allocBlocks(a, 1) {
		t.Fatal("Alloc succeeded past the allocation limit")
	}
	done := make(chan LSN)
	go func() {
		lsn, err := a.Alloc(context.Background(), 3)
		if err != nil {
			t.Error(err)
		}
		done <- lsn
	}()
	select {
	case <-done:
		t.Fatal("alloc returned before VDL advanced")
	case <-time.After(20 * time.Millisecond):
	}
	a.AdvanceVDL(5) // headroom becomes 5+10=15, enough for LSNs 11..13
	select {
	case lsn := <-done:
		if lsn != 11 {
			t.Fatalf("resumed alloc got %d, want 11", lsn)
		}
	case <-time.After(time.Second):
		t.Fatal("alloc did not resume after VDL advance")
	}
}

func TestAllocatorVDLRegressionIgnored(t *testing.T) {
	a := NewAllocator(ZeroLSN, 10)
	a.AdvanceVDL(8)
	a.AdvanceVDL(3)
	// The bound stays at 8 + 10: LSNs 1..18 are granted, the 19th waits.
	if lsn, err := a.Alloc(context.Background(), 18); err != nil || lsn != 1 {
		t.Fatalf("alloc up to the bound: %d, %v", lsn, err)
	}
	if !allocBlocks(a, 1) {
		t.Fatal("alloc past VDL 8 + LAL 10 granted after a regressed report")
	}
}

func TestAllocatorClose(t *testing.T) {
	a := NewAllocator(ZeroLSN, 1)
	if _, err := a.Alloc(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error)
	go func() {
		_, err := a.Alloc(context.Background(), 5)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	if err := <-errs; err != ErrAllocatorClosed {
		t.Fatalf("got %v, want ErrAllocatorClosed", err)
	}
	if _, err := a.Alloc(context.Background(), 1); err != ErrAllocatorClosed {
		t.Fatalf("alloc after close: %v", err)
	}
}

func TestAllocatorConcurrentUnique(t *testing.T) {
	a := NewAllocator(ZeroLSN, 0)
	const workers, per = 16, 500
	var mu sync.Mutex
	seen := make(map[LSN]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := a.Alloc(context.Background(), 2)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[lsn] || seen[lsn+1] {
					t.Errorf("duplicate LSN handed out at %d", lsn)
				}
				seen[lsn], seen[lsn+1] = true, true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per*2 {
		t.Fatalf("allocated %d LSNs, want %d", len(seen), workers*per*2)
	}
	if got := a.HighestAllocated(); got != LSN(workers*per*2) {
		t.Fatalf("highest %d, want %d", got, workers*per*2)
	}
}

func TestAllocatorPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	NewAllocator(ZeroLSN, 0).Alloc(context.Background(), 0)
}
