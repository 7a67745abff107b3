package volume

import (
	"testing"
	"time"

	"aurora/internal/core"
)

// TestHedgeDeadlineForgetsColdStart is the regression test for the
// lifetime-P95 bug: a slow cold start used to inflate the hedge deadline
// permanently (the reservoir never forgot it). With windowed quantiles the
// deadline must recover once the slow samples age out of the window.
func TestHedgeDeadlineForgetsColdStart(t *testing.T) {
	h := newHealthTracker(HealthConfig{WindowInterval: 20 * time.Millisecond}, 1, 6)
	pg := core.PGID(0)

	// Cold start: a full recompute batch of slow reads.
	for i := 0; i < deadlineEvery; i++ {
		h.observeReadLatency(pg, 5*time.Millisecond)
	}
	inflated := h.ReadDeadline(pg)
	if inflated < 5*time.Millisecond {
		t.Fatalf("cold-start deadline = %v, want >= 3x the slow p95", inflated)
	}

	// Let the cold-start samples age out of both windows, then observe
	// steady fast traffic.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < deadlineEvery; i++ {
		h.observeReadLatency(pg, 100*time.Microsecond)
	}
	recovered := h.ReadDeadline(pg)
	if recovered >= inflated {
		t.Fatalf("deadline never recovered from cold start: %v -> %v", inflated, recovered)
	}
	if recovered > time.Millisecond {
		t.Fatalf("recovered deadline = %v, want < 1ms for 100µs traffic", recovered)
	}
}

// TestHedgeDeadlineIsThreeTimesP95: a steady 1 ms read p95 gives a 3 ms
// deadline (within the histogram's ±3.2 %), and the deadline is clamped to
// [HedgeMin, hedgeMax] on either side.
func TestHedgeDeadlineIsThreeTimesP95(t *testing.T) {
	for _, tc := range []struct {
		name     string
		read     time.Duration
		min, max time.Duration
	}{
		{"1ms p95", time.Millisecond, 2904 * time.Microsecond, 3096 * time.Microsecond},
		{"floor", 10 * time.Microsecond, 250 * time.Microsecond, 250 * time.Microsecond},
		{"ceiling", 30 * time.Millisecond, hedgeMax, hedgeMax},
	} {
		h := newHealthTracker(HealthConfig{WindowInterval: time.Second}, 1, 6)
		pg := core.PGID(0)
		if d := h.ReadDeadline(pg); d != 250*time.Microsecond {
			t.Fatalf("%s: deadline with no data = %v, want the 250µs HedgeMin", tc.name, d)
		}
		for i := 0; i < deadlineEvery; i++ {
			h.observeReadLatency(pg, tc.read)
		}
		if d := h.ReadDeadline(pg); d < tc.min || d > tc.max {
			t.Fatalf("%s: deadline %v for steady %v reads, want [%v, %v]", tc.name, d, tc.read, tc.min, tc.max)
		}
	}
}

// TestBackoffCapsAtTwoMilliseconds: redelivery backoff doubles from 200µs
// and stops at 2 ms, plus up to 50 % jitter on top of the capped base.
func TestBackoffCapsAtTwoMilliseconds(t *testing.T) {
	if deliverMaxBackoff != 2*time.Millisecond {
		t.Fatalf("backoff cap %v, want 2ms", deliverMaxBackoff)
	}
	for try := 0; try < deliverAttempts+4; try++ {
		base := min(deliverBaseBackoff<<uint(try), 2*time.Millisecond)
		var sawJitter bool
		for i := 0; i < 200; i++ {
			d := backoffFor(try)
			if d < base || d > base+base/2 {
				t.Fatalf("try %d: backoff %v outside [%v, %v]", try, d, base, base+base/2)
			}
			sawJitter = sawJitter || d > base
		}
		if !sawJitter {
			t.Fatalf("try %d: 200 backoffs all exactly %v, no jitter", try, base)
		}
	}
}
