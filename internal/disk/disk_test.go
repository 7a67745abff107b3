package disk

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestCountsAndStats(t *testing.T) {
	d := New(FastLocal())
	if err := d.Write(100); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(40); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSync(60); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 2 || s.Reads != 1 || s.Syncs != 1 || s.BytesWritten != 160 || s.BytesRead != 40 {
		t.Fatalf("stats %+v", s)
	}
	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestFailureInjection(t *testing.T) {
	d := New(FastLocal())
	d.Fail(true)
	if !d.Failed() {
		t.Fatal("Failed not reported")
	}
	if err := d.Write(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("write on failed disk: %v", err)
	}
	if err := d.Read(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("read on failed disk: %v", err)
	}
	if err := d.WriteSync(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("durable write on failed disk: %v", err)
	}
	if s := d.Stats(); s != (Stats{}) {
		t.Fatal("failed IO counted")
	}
	d.Fail(false)
	if err := d.Write(1); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyAndBandwidth: each operation is one wait of its latency plus its
// transfer; a durable append's latency is the write's and the flush's together.
func TestLatencyAndBandwidth(t *testing.T) {
	d := New(Config{WriteLatency: time.Millisecond, SyncLatency: 50 * time.Microsecond, Bandwidth: 1000})
	var slept []time.Duration
	d.SetSleeper(func(dur time.Duration) { slept = append(slept, dur) })
	for _, tc := range []struct {
		op   func(int) error
		want time.Duration
	}{
		{d.Write, time.Millisecond + 500*time.Millisecond},
		{d.WriteSync, time.Millisecond + 50*time.Microsecond + 500*time.Millisecond},
	} {
		slept = slept[:0]
		if err := tc.op(500); err != nil {
			t.Fatal(err)
		}
		if len(slept) != 1 || slept[0] != tc.want {
			t.Fatalf("slept %v, want one wait of %v", slept, tc.want)
		}
	}
}

func TestSlowDevice(t *testing.T) {
	d := New(Config{ReadLatency: time.Millisecond})
	var slept time.Duration
	d.SetSleeper(func(dur time.Duration) { slept = dur })
	d.SetSlow(4)
	if err := d.Read(0); err != nil {
		t.Fatal(err)
	}
	if slept != 4*time.Millisecond {
		t.Fatalf("slow read %v, want 4ms", slept)
	}
	d.SetSlow(0)
	if err := d.Read(0); err != nil {
		t.Fatal(err)
	}
	if slept != time.Millisecond {
		t.Fatalf("restored read %v, want 1ms", slept)
	}
}

func TestConcurrent(t *testing.T) {
	d := New(FastLocal())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := d.Write(8); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := d.Stats(); s.Writes != 8000 || s.BytesWritten != 64000 {
		t.Fatalf("stats %+v", s)
	}
}
