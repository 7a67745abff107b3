package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// within reports whether an estimate is inside the instrument's stated
// resolution of the exact value: 3.2 %, and exact where buckets are one wide.
func within(got, want uint64) bool {
	if want < 2*subBuckets {
		return got == want
	}
	return math.Abs(float64(got)-float64(want)) <= 0.032*float64(want)
}

// exactQuantile is the order statistic the histogram estimates: the sample
// of rank q*n (at least the first) in sorted order.
func exactQuantile(sorted []int64, q float64) uint64 {
	rank := int(q * float64(len(sorted)))
	if rank < 1 {
		rank = 1
	}
	return uint64(sorted[rank-1])
}

type quantiler interface{ Quantile(q float64) uint64 }

// views files the samples through every path a quantile is read from: the
// lifetime histogram and the windowed histogram's two banks (half the
// samples on each side of a rotation).
func views(samples []int64) map[string]quantiler {
	var h Histogram
	w, clk := newTestWindowed(time.Second)
	for i, v := range samples {
		if i == len(samples)/2 {
			clk.advance(time.Second)
		}
		h.Observe(v)
		w.Observe(v)
	}
	return map[string]quantiler{"Histogram": &h, "WindowedHistogram": w}
}

// TestQuantileErrorBound: every quantile every consumer reads is within 3.2 %
// of the sample of that rank — over nine decades of latency and over the
// inputs bucketing gets wrong first.
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sets := map[string][]int64{}
	for i := 0; i < 100_000; i++ { // log-uniform over [1 ns, 100 s]
		sets["log-uniform"] = append(sets["log-uniform"], int64(math.Exp(rng.Float64()*math.Log(100e9))))
	}
	for i := 0; i < 1000; i++ {
		sets["all equal"] = append(sets["all equal"], 1_234_567)
		sets["zeros"] = append(sets["zeros"], 0)
		sets["small"] = append(sets["small"], int64(i%(2*subBuckets)))
		sets["max int64"] = append(sets["max int64"], []int64{3, math.MaxInt64}[i%2])
	}
	for k := 1; k < 63; k++ {
		sets["powers of two"] = append(sets["powers of two"], 1<<k-1, 1<<k, 1<<k+1)
	}
	for name, samples := range sets {
		vs := views(samples)
		slices.Sort(samples)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			want := exactQuantile(samples, q)
			for view, h := range vs {
				if got := h.Quantile(q); !within(got, want) {
					t.Errorf("%s through %s: q%v = %d, the sorted sample has %d (%+.2f%%)",
						name, view, q, got, want, 100*(float64(got)/float64(want)-1))
				}
			}
		}
	}
}

// TestResolvesWhatBENCH10CouldNot: BENCH_10 reported static and adaptive
// commit p95 as 25.16 ms to the digit, the midpoint of [2^24, 2^25) ns. Two
// distributions whose p95s are 18 ms and 30 ms both sat in that bucket.
func TestResolvesWhatBENCH10CouldNot(t *testing.T) {
	withP95 := func(p95 time.Duration) []int64 {
		var s []int64
		for i := 1; i <= 950; i++ { // a ramp whose 950th of 1000 is p95
			s = append(s, int64(p95)*int64(i)/950)
		}
		for i := 0; i < 50; i++ {
			s = append(s, int64(40*time.Millisecond))
		}
		rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	fast, slow := withP95(18*time.Millisecond), withP95(30*time.Millisecond)
	fastViews, slowViews := views(fast), views(slow)
	slices.Sort(fast)
	slices.Sort(slow)
	if f, s := exactQuantile(fast, 0.95), exactQuantile(slow, 0.95); f != uint64(18*time.Millisecond) || s != uint64(30*time.Millisecond) {
		t.Fatalf("setup: exact p95s %d and %d", f, s)
	}
	for view := range fastViews {
		f, s := fastViews[view].Quantile(0.95), slowViews[view].Quantile(0.95)
		if !within(f, uint64(18*time.Millisecond)) || !within(s, uint64(30*time.Millisecond)) {
			t.Errorf("%s: p95s %v and %v, want 18ms and 30ms", view, time.Duration(f), time.Duration(s))
		}
		if float64(s) <= 1.3*float64(f) {
			t.Errorf("%s: p95s %v and %v are not 30%% apart", view, time.Duration(f), time.Duration(s))
		}
	}
}

// FuzzBucketRoundTrip: a value lies within the bounds of the bucket it is
// filed in, buckets are monotone in the value, and neighbours tile the range.
func FuzzBucketRoundTrip(f *testing.F) {
	for _, v := range []uint64{0, 1, 15, 16, 31, 32, 33, 1<<24 - 1, 1 << 24, 1 << 63, math.MaxUint64} {
		f.Add(v, v+1)
	}
	f.Fuzz(func(t *testing.T, v, w uint64) {
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d of %d", v, i, numBuckets)
		}
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("%d filed in bucket %d = [%d, %d]", v, i, lo, hi)
		}
		if (hi-lo)/2 > lo/32 {
			t.Fatalf("bucket %d = [%d, %d]: midpoint further than 1/32 from its low end", i, lo, hi)
		}
		if i+1 < numBuckets {
			if next, _ := bucketBounds(i + 1); next != hi+1 {
				t.Fatalf("bucket %d ends at %d, bucket %d starts at %d", i, hi, i+1, next)
			}
		} else if hi != math.MaxUint64 {
			t.Fatalf("last bucket ends at %d", hi)
		}
		if j := bucketOf(w); (v < w && i > j) || (v > w && i < j) {
			t.Fatalf("bucketOf(%d) = %d, bucketOf(%d) = %d: not monotone", v, i, w, j)
		}
	})
}

// TestObserveZeroAllocs: an observation is atomic adds and nothing else, on
// the lifetime histogram and through a window's rotation check alike.
func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	w := NewWindowedHistogram(time.Millisecond)
	v := int64(1)
	if avg := testing.AllocsPerRun(1000, func() {
		v = v*3 + 1
		h.Observe(v & math.MaxInt64)
		w.ObserveDuration(time.Duration(v & 0xFFFFFF))
	}); avg != 0 {
		t.Fatalf("Observe allocates %.2f objects", avg)
	}
}

// TestWindowedQuantileZeroAllocs: the hedge deadline is a windowed p95
// recomputed every 32 reads. The two banks are walked in place; a merged
// 7.8 KB copy escaping to the heap there would be a quarter kilobyte a read.
func TestWindowedQuantileZeroAllocs(t *testing.T) {
	w := NewWindowedHistogram(time.Hour)
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		w.Observe(i * 1000)
		h.Observe(i * 1000)
	}
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() { sink += w.Quantile(0.95) + h.Quantile(0.95) }); avg != 0 {
		t.Fatalf("Quantile allocates %.2f objects", avg)
	}
	if !within(w.Quantile(0.95), 950_000) || sink == 0 {
		t.Fatalf("windowed p95 %d of 1000..1000000", w.Quantile(0.95))
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if p := h.QuantileDuration(0.50); !within(uint64(p), uint64(50*time.Millisecond)) {
		t.Fatalf("p50 %v", p)
	}
	if p := h.QuantileDuration(0.95); !within(uint64(p), uint64(95*time.Millisecond)) {
		t.Fatalf("p95 %v", p)
	}
	if h.Max() != uint64(100*time.Millisecond) {
		t.Fatalf("max %v", h.Max())
	}
	if m := time.Duration(h.Mean()); m != 50500*time.Microsecond {
		t.Fatalf("mean %v", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.QuantileDuration(0.5) != 0 || h.Count() != 0 || h.QuantileDuration(0.99) != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// TestHistogramConcurrent: quantile readers run against observers (the race
// detector's half of the test) and lose no sample.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveDuration(time.Millisecond)
				if i%100 == 0 {
					if q := h.QuantileDuration(0.5); !within(uint64(q), uint64(time.Millisecond)) {
						t.Errorf("mid-run p50 %v", q)
					}
				}
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || !within(h.Quantile(0.99), uint64(time.Millisecond)) {
		t.Fatalf("count %d, p99 %d", h.Count(), h.Quantile(0.99))
	}
}

func TestLockFreeHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("fresh histogram not zero")
	}
	for _, v := range []int64{1, 2, 4, 8, 16} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 31 || h.Max() != 16 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if m := h.Mean(); m != 31.0/5 {
		t.Fatalf("mean %v", m)
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	h.Observe(-5)
	if h.Count() != 6 || h.Sum() != 31 {
		t.Fatalf("after negative: count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestLockFreeHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 values uniform in [0, 1000): the sample of rank q*n is q*n-1.
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.50)
	if !within(p50, 499) {
		t.Fatalf("p50 %d, the 500th of 0..999 is 499", p50)
	}
	p99 := h.Quantile(0.99)
	if !within(p99, 989) {
		t.Fatalf("p99 %d, the 990th of 0..999 is 989", p99)
	}
	if p99 < p50 {
		t.Fatalf("quantiles not monotone: p50=%d p99=%d", p50, p99)
	}
	if h.Quantile(1.0) > h.Max() {
		t.Fatalf("p100 %d above max %d", h.Quantile(1.0), h.Max())
	}
}

func TestLockFreeHistogramDurations(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.ObserveDuration(85 * time.Millisecond)
	}
	// All samples in one bucket: every quantile reports that bucket's
	// midpoint, clamped to max.
	p50, p99 := h.QuantileDuration(0.50), h.QuantileDuration(0.99)
	if p50 != p99 {
		t.Fatalf("single-bucket quantiles differ: p50=%v p99=%v", p50, p99)
	}
	if p50 > 85*time.Millisecond || !within(uint64(p50), uint64(85*time.Millisecond)) {
		t.Fatalf("p50 %v of a hundred 85ms samples", p50)
	}
}

func TestLockFreeHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count %d, want 8000", h.Count())
	}
	if h.Sum() != 8*1000*1001/2 {
		t.Fatalf("sum %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max %d", h.Max())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("count %d, want 5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 805 {
		t.Fatalf("count %d, want 805", got)
	}
}

func TestLockFreeHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty histogram q%.2f = %d", q, v)
		}
	}
	if h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

func TestLockFreeHistogramQuantileSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(777)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1.0} {
		v := h.Quantile(q)
		// One sample: every quantile lands in its bucket, clamped by max —
		// so the estimate can never exceed the sample.
		if v > 777 || !within(v, 777) {
			t.Fatalf("single-sample q%.2f = %d, want 777 less at most 3.2%%", q, v)
		}
	}
	var z Histogram
	z.Observe(0)
	if v := z.Quantile(0.99); v != 0 {
		t.Fatalf("single zero sample q99 = %d", v)
	}
}

func TestLockFreeHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	// The largest value Observe can be handed sits in the last sub-bucket of
	// its octave; the quantile walk must clamp hi to max rather than overflow.
	huge := int64(math.MaxInt64)
	h.Observe(huge)
	if v := h.Quantile(0.99); v > uint64(huge) || !within(v, uint64(huge)) {
		t.Fatalf("q99 of max-int64 sample = %d", v)
	}
	if h.Max() != uint64(huge) {
		t.Fatalf("max %d", h.Max())
	}
	// Negative values clamp to zero instead of wrapping into the top bucket.
	h.Observe(-5)
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	if v := h.Quantile(0.25); v != 0 {
		t.Fatalf("clamped negative should land in bucket 0, q25 = %d", v)
	}
}

func TestLockFreeHistogramQuantileMonotone(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift: deterministic random fill
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for trial := 0; trial < 20; trial++ {
		var h Histogram
		n := int(next()%1000) + 1
		for i := 0; i < n; i++ {
			h.Observe(int64(next() % 10_000_000))
		}
		p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		if p50 > p95 || p95 > p99 {
			t.Fatalf("trial %d (n=%d): p50=%d p95=%d p99=%d not monotone", trial, n, p50, p95, p99)
		}
		if p99 > h.Max() {
			t.Fatalf("trial %d: p99=%d above max=%d", trial, p99, h.Max())
		}
	}
}

func TestHistogramPercentileMonotoneRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 10; trial++ {
		var h Histogram
		for i, n := 0, rng.Intn(500)+1; i < n; i++ {
			h.ObserveDuration(time.Duration(rng.Intn(1_000_000)))
		}
		var last time.Duration
		for q := 0.01; q <= 1.0; q += 0.01 {
			p := h.QuantileDuration(q)
			if p < last || uint64(p) > h.Max() {
				t.Fatalf("trial %d: q%.2f = %v after %v (max %d)", trial, q, p, last, h.Max())
			}
			last = p
		}
	}
}
