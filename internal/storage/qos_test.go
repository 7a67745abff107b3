package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

func testHostPool(t *testing.T, hosts int) (*netsim.Network, *Pool) {
	t.Helper()
	net := netsim.New(netsim.FastLocal())
	return net, NewPool(PoolConfig{Name: "hp", Hosts: hosts, Net: net, Disk: disk.FastLocal()})
}

func TestQoSUnlimitedWhenUnconfigured(t *testing.T) {
	q := newQoS(QoSConfig{})
	for i := 0; i < 100; i++ {
		if err := q.AdmitIngest(context.Background(), 1, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats()[1]; st.Throttles != 0 || st.Rejects != 0 {
		t.Fatalf("shaping engaged with no capacity configured: %+v", st)
	}
}

func TestQoSThrottlesBeyondBurst(t *testing.T) {
	q := newQoS(QoSConfig{IngestBytesPerSec: 1 << 20})
	start := time.Now()
	// 128 KiB against the 64 KiB burst at 1 MiB/s must shape for tens of ms.
	for i := 0; i < 32; i++ {
		if err := q.AdmitIngest(context.Background(), 1, 4096); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()[1]
	if st.Throttles == 0 {
		t.Fatal("no throttles recorded past the burst")
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("32x4KiB at 1MiB/s took %v, want >= ~62ms of shaping", elapsed)
	}
	if st.IngestBytes != 32*4096 {
		t.Fatalf("IngestBytes = %d, want %d", st.IngestBytes, 32*4096)
	}
}

func TestQoSFairShareSplitsCapacity(t *testing.T) {
	q := newQoS(QoSConfig{IngestBytesPerSec: 4 << 20})
	ctx := context.Background()
	// Keep a second tenant active (a byte well inside every activity window)
	// and measure the first tenant's shaped rate: it should be ~half the
	// host capacity.
	_ = q.AdmitIngest(ctx, 1, 1)
	_ = q.AdmitIngest(ctx, 2, 1)
	stop := make(chan struct{})
	var other sync.WaitGroup
	other.Add(1)
	go func() {
		defer other.Done()
		tick := time.NewTicker(activeWindow / 5)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = q.AdmitIngest(ctx, 2, 1)
			}
		}
	}()
	defer other.Wait()
	defer close(stop)
	start := time.Now()
	const chunk = 64 * 1024
	for i := 0; i < 16; i++ {
		if err := q.AdmitIngest(ctx, 1, chunk); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// The 960 KiB past the 64 KiB burst at a 2 MiB/s fair share (half of
	// 4 MiB/s) ≈ 470ms; a full 4 MiB/s share would take ~235ms. Split the
	// difference generously.
	if elapsed < 350*time.Millisecond {
		t.Fatalf("16x64KiB done in %v — tenant got more than its fair share", elapsed)
	}
}

func TestQoSQueueCapRejects(t *testing.T) {
	q := newQoS(QoSConfig{IngestBytesPerSec: 1024})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Oversized admits fill every queue slot (each will wait a long time at
	// 1 KiB/s); launch them in the background.
	done := make(chan error, qosMaxQueue)
	for i := 0; i < qosMaxQueue; i++ {
		go func() { done <- q.AdmitIngest(ctx, 1, 1<<20) }()
	}
	// Wait until the waiters are registered.
	deadline := time.Now().Add(2 * time.Second)
	for {
		q.mu.Lock()
		waiters := 0
		if tq := q.tenants[1]; tq != nil {
			waiters = tq.waiters
		}
		q.mu.Unlock()
		if waiters >= qosMaxQueue || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.AdmitIngest(ctx, 1, 1<<20); !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
	if st := q.Stats()[1]; st.Rejects != 1 {
		t.Fatalf("Rejects = %d, want 1", st.Rejects)
	}
	cancel()
	for i := 0; i < qosMaxQueue; i++ {
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("background admit: %v", err)
		}
	}
}

func TestQoSCancelRefundsDebt(t *testing.T) {
	q := newQoS(QoSConfig{IngestBytesPerSec: 1024})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.AdmitIngest(ctx, 7, 1<<20) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	q.mu.Lock()
	debt := q.tenants[7].debt
	q.mu.Unlock()
	if debt > 4096 {
		t.Fatalf("debt %v not refunded after cancellation", debt)
	}
}

func TestHostRegistryRejectsDuplicates(t *testing.T) {
	_, pool := testHostPool(t, 3)
	h := pool.Hosts()[0]
	n := NewNode(Config{
		Seg: core.SegmentID{PG: 1, Replica: 0}, Vol: 5, Host: h,
	})
	defer n.Detach()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate (vol, pg) registration did not panic")
		}
	}()
	NewNode(Config{Seg: core.SegmentID{PG: 1, Replica: 1}, Vol: 5, Host: h})
}

func TestHostCrashTakesDownAllTenants(t *testing.T) {
	_, pool := testHostPool(t, 3)
	h := pool.Hosts()[0]
	n1 := NewNode(Config{Seg: core.SegmentID{PG: 0}, Vol: 1, Host: h})
	n2 := NewNode(Config{Seg: core.SegmentID{PG: 0}, Vol: 2, Host: h})
	defer n1.Detach()
	defer n2.Detach()
	h.Crash()
	if !n1.Down() || !n2.Down() {
		t.Fatal("host crash left a hosted segment up")
	}
	h.Restart()
	if n1.Down() || n2.Down() {
		t.Fatal("host restart left a hosted segment down")
	}
	if got := len(h.Tenants()); got != 2 {
		t.Fatalf("host reports %d tenants, want 2", got)
	}
}
