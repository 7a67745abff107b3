package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAcquireReleaseBasic(t *testing.T) {
	lt := NewLockTable(0)
	if err := lt.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	// Re-entrant.
	if err := lt.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	if h, ok := lt.Holder("a"); !ok || h != 1 {
		t.Fatalf("holder %d %v", h, ok)
	}
	if lt.HeldBy(1) != 1 {
		t.Fatalf("held %d", lt.HeldBy(1))
	}
	// Another transaction's lock is not released with txn 1's.
	if err := lt.Acquire(2, "b"); err != nil {
		t.Fatal(err)
	}
	lt.ReleaseAll(1)
	if _, ok := lt.Holder("a"); ok {
		t.Fatal("lock survived release")
	}
	if h, ok := lt.Holder("b"); !ok || h != 2 {
		t.Fatalf("another transaction's lock released: holder %d %v", h, ok)
	}
}

func TestTryAcquire(t *testing.T) {
	lt := NewLockTable(0)
	if !lt.TryAcquire(1, "a") {
		t.Fatal("free lock refused")
	}
	if lt.TryAcquire(2, "a") {
		t.Fatal("held lock granted")
	}
	if !lt.TryAcquire(1, "a") {
		t.Fatal("re-entrant try refused")
	}
	lt.ReleaseAll(1)
	if !lt.TryAcquire(2, "a") {
		t.Fatal("released lock refused")
	}
}

func TestFIFOHandoff(t *testing.T) {
	lt := NewLockTable(time.Second)
	if err := lt.Acquire(1, "k"); err != nil {
		t.Fatal(err)
	}
	order := make(chan uint64, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, id := range []uint64{2, 3} {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			<-start
			// Stagger entry so 2 queues before 3.
			if id == 3 {
				time.Sleep(30 * time.Millisecond)
			}
			if err := lt.Acquire(id, "k"); err != nil {
				t.Error(err)
				return
			}
			order <- id
			time.Sleep(10 * time.Millisecond)
			lt.ReleaseAll(id)
		}(id)
	}
	close(start)
	time.Sleep(60 * time.Millisecond)
	lt.ReleaseAll(1)
	wg.Wait()
	if a, b := <-order, <-order; a != 2 || b != 3 {
		t.Fatalf("grant order %d,%d want 2,3", a, b)
	}
}

// TestReleaseAllFreesHandedOffLocks: a lock granted to a waiter joins the
// waiter's own rows, so its ReleaseAll frees it with them, and a released
// key nobody waits on leaves the table.
func TestReleaseAllFreesHandedOffLocks(t *testing.T) {
	lt := NewLockTable(time.Second)
	for _, l := range []struct {
		txn uint64
		key string
	}{{1, "a"}, {1, ""}, {2, "b"}} {
		if err := lt.Acquire(l.txn, l.key); err != nil {
			t.Fatal(err)
		}
	}
	granted := make(chan error)
	go func() { granted <- lt.Acquire(2, "a") }()
	for lt.waits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	lt.ReleaseAll(1)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if h, ok := lt.Holder("a"); !ok || h != 2 {
		t.Fatalf("a: holder %d %v, want the waiter", h, ok)
	}
	if _, ok := lt.Holder(""); ok {
		t.Fatal("txn 1's second row survived its release")
	}
	if n := lt.HeldBy(2); n != 2 {
		t.Fatalf("txn 2 holds %d rows, want 2", n)
	}
	lt.ReleaseAll(2)
	lt.ReleaseAll(2) // a transaction with nothing held
	if n := len(lt.locks); n != 0 || lt.HeldBy(2) != 0 {
		t.Fatalf("%d rows still locked after both released, txn 2 holds %d", n, lt.HeldBy(2))
	}
}

func TestLockTimeout(t *testing.T) {
	lt := NewLockTable(50 * time.Millisecond)
	if err := lt.Acquire(1, "k"); err != nil {
		t.Fatal(err)
	}
	startedAt := time.Now()
	err := lt.Acquire(2, "k")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if time.Since(startedAt) < 40*time.Millisecond {
		t.Fatal("timed out too early")
	}
	_, timeouts := lt.Stats()
	if timeouts != 1 {
		t.Fatalf("timeouts %d", timeouts)
	}
	// After the holder releases, the key is free (the timed-out waiter was
	// removed from the queue).
	lt.ReleaseAll(1)
	if err := lt.Acquire(2, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockBrokenByTimeout(t *testing.T) {
	lt := NewLockTable(80 * time.Millisecond)
	if err := lt.Acquire(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(2, "b"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- lt.Acquire(1, "b") }()
	go func() { errs <- lt.Acquire(2, "a") }()
	// At least one participant must time out, breaking the deadlock.
	gotTimeout := false
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrLockTimeout) {
				gotTimeout = true
				// The victim aborts, releasing its locks.
				if err == nil {
					continue
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock not broken")
		}
		if gotTimeout {
			lt.ReleaseAll(1)
			lt.ReleaseAll(2)
		}
	}
	if !gotTimeout {
		t.Fatal("no participant timed out")
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	lt := NewLockTable(5 * time.Second)
	if err := lt.Acquire(1, "k"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() { errs <- lt.Acquire(2, "k") }()
	time.Sleep(20 * time.Millisecond)
	lt.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrLockClosed) {
			t.Fatalf("want ErrLockClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not released on close")
	}
	if err := lt.Acquire(3, "x"); !errors.Is(err, ErrLockClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
}

func TestConcurrentDistinctKeysNoContention(t *testing.T) {
	lt := NewLockTable(time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w + 1)
			for i := 0; i < 200; i++ {
				key := string(rune('a'+w)) + "-row"
				if err := lt.Acquire(id, key); err != nil {
					t.Error(err)
					return
				}
				lt.ReleaseAll(id)
			}
		}(w)
	}
	wg.Wait()
	waits, _ := lt.Stats()
	if waits != 0 {
		t.Fatalf("distinct keys produced %d waits", waits)
	}
}

func TestHotKeySerializes(t *testing.T) {
	lt := NewLockTable(5 * time.Second)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w + 1)
			for i := 0; i < 100; i++ {
				if err := lt.Acquire(id, "hot"); err != nil {
					t.Error(err)
					return
				}
				counter++ // protected by the row lock
				lt.ReleaseAll(id)
			}
		}(w)
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter %d, want 800 — lock did not serialize", counter)
	}
}

func TestIDsUnique(t *testing.T) {
	var g IDs
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := g.Next()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 8000 {
		t.Fatalf("ids %d", len(seen))
	}
}

// BenchmarkReleaseAllWithOthersHeld: a two-row transaction's acquire and
// release while other transactions hold `others` rows. The release follows
// the transaction's own chain, so its cost does not grow with the table.
func BenchmarkReleaseAllWithOthersHeld(b *testing.B) {
	for _, others := range []int{0, 100, 5000} {
		b.Run(fmt.Sprint(others), func(b *testing.B) {
			lt := NewLockTable(0)
			for i := range others {
				if err := lt.Acquire(uint64(1_000_000+i), fmt.Sprintf("other-%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				id := uint64(i + 1)
				if err := lt.Acquire(id, "a"); err != nil {
					b.Fatal(err)
				}
				if err := lt.Acquire(id, "b"); err != nil {
					b.Fatal(err)
				}
				lt.ReleaseAll(id)
			}
		})
	}
}
