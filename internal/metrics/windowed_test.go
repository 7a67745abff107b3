package metrics

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives a WindowedHistogram deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestWindowed(interval time.Duration) (*WindowedHistogram, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	w := NewWindowedHistogram(interval)
	w.now = clk.now
	w.curStart.Store(clk.now().UnixNano())
	return w, clk
}

// TestWindowedForgetsOutliers is the core property the hedged-read fix
// depends on: a huge startup outlier must stop influencing the quantile
// after two window rotations, where a lifetime histogram would keep it
// forever.
func TestWindowedForgetsOutliers(t *testing.T) {
	w, clk := newTestWindowed(100 * time.Millisecond)
	w.ObserveDuration(500 * time.Millisecond) // cold-start outlier
	for i := 0; i < 50; i++ {
		w.ObserveDuration(time.Millisecond)
	}
	// Same window: the outlier caps the p100 and inflates the max.
	if q := w.QuantileDuration(1.0); q < 200*time.Millisecond {
		t.Fatalf("in-window p100 = %v, outlier should dominate", q)
	}
	// One rotation: outlier is in the previous window, still visible.
	clk.advance(110 * time.Millisecond)
	for i := 0; i < 50; i++ {
		w.ObserveDuration(time.Millisecond)
	}
	if q := w.QuantileDuration(1.0); q < 200*time.Millisecond {
		t.Fatalf("after one rotation p100 = %v, outlier should still be visible", q)
	}
	// Second rotation: outlier aged out entirely.
	clk.advance(110 * time.Millisecond)
	for i := 0; i < 50; i++ {
		w.ObserveDuration(time.Millisecond)
	}
	if q := w.QuantileDuration(1.0); q > 4*time.Millisecond {
		t.Fatalf("after two rotations p100 = %v, outlier must be forgotten", q)
	}
	if q := w.QuantileDuration(0.95); q > 4*time.Millisecond {
		t.Fatalf("after two rotations p95 = %v, want ~1ms", q)
	}
}

func TestWindowedIdleGapClearsBoth(t *testing.T) {
	w, clk := newTestWindowed(100 * time.Millisecond)
	for i := 0; i < 50; i++ {
		w.Observe(1 << 20)
	}
	if w.Count() != 50 {
		t.Fatalf("count = %d", w.Count())
	}
	// A long idle gap (> 2 intervals) must clear everything.
	clk.advance(time.Second)
	if w.Count() != 0 {
		t.Fatalf("count after idle gap = %d, want 0", w.Count())
	}
	if q := w.Quantile(0.95); q != 0 {
		t.Fatalf("quantile after idle gap = %d, want 0", q)
	}
	// Fresh observations start a clean window.
	w.Observe(100)
	if w.Count() != 1 {
		t.Fatalf("count = %d after fresh observe", w.Count())
	}
}

func TestWindowedEmptyAndDefaults(t *testing.T) {
	w := NewWindowedHistogram(0) // default interval
	if w.interval != time.Second {
		t.Fatalf("default interval = %v", w.interval)
	}
	if w.Count() != 0 || w.Quantile(0.95) != 0 || w.QuantileDuration(0.5) != 0 {
		t.Fatal("empty windowed histogram not zero")
	}
	w.Observe(-5) // clamps, doesn't panic
	if w.Count() != 1 {
		t.Fatalf("count = %d", w.Count())
	}
}

func TestWindowedConcurrent(t *testing.T) {
	w, clk := newTestWindowed(5 * time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.ObserveDuration(time.Millisecond)
				_ = w.QuantileDuration(0.95)
			}
		}()
	}
	// Drive rotations from a fifth goroutine while observers hammer.
	for i := 0; i < 50; i++ {
		clk.advance(3 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	// No assertion beyond absence of races/panics; quantile must be sane.
	if q := w.QuantileDuration(0.5); q > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", q)
	}
}
