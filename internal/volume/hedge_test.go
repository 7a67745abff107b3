package volume

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/page"
	"aurora/internal/storage"
)

// Unit tests of runHedged over scripted attempts: who runs which attempt,
// what exists before the deadline fires, and what every counter and health
// observation says afterwards.

// hedgeTracker returns a tracker over one PG whose read deadline is d.
func hedgeTracker(replicas int, d time.Duration) *HealthTracker {
	return newHealthTracker(HealthConfig{HedgeMin: d}, 1, replicas)
}

// runHedged runs one hedged read over cands with a scripted attempt, the way
// Fleet.readPage runs its page reads.
func (h *HealthTracker) runHedged(ctx context.Context, pg core.PGID, cands []int, attempt attemptFunc) (page.Page, error) {
	r := h.newRead(ctx, nil, pg)
	r.cands = append(r.cands, cands...)
	return r.run(attempt)
}

// busyFor keeps the calling goroutine runnable for d, or until ctx is done:
// a scripted replica's latency. It spins through the scheduler instead of
// sleeping because an idle Go process rounds a sub-millisecond timer up to a
// millisecond, which would put every delay here far past the hedge deadline.
func busyFor(ctx context.Context, d time.Duration) error {
	for start := time.Now(); time.Since(start) < d; {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return ctx.Err()
}

// settleGoroutines waits for the goroutine count to come back to base —
// canceled losers unwind on their own time — and reports the last count.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	return runtime.NumGoroutine()
}

func (h *HealthTracker) repSnap(idx int) repSnap { return h.snapshot(0, nil)[idx] }

// TestHedgedFirstAnswerIsOneCallChain: when the first replica answers before
// the deadline the read is the caller's goroutine and nothing else — one
// attempt, no goroutine started, and a fixed handful of heap objects.
func TestHedgedFirstAnswerIsOneCallChain(t *testing.T) {
	h := hedgeTracker(3, time.Minute)
	want := page.New(7)
	attempts := 0
	attempt := func(_ context.Context, idx int, hedged bool) (page.Page, error) {
		attempts++ // unsynchronized on purpose: under -race this proves the caller runs it
		if idx != 0 || hedged {
			t.Errorf("attempt on candidate %d, hedged=%v", idx, hedged)
		}
		return want, nil
	}
	ctx := context.Background()
	cands := []int{0, 1, 2}
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		p, err := h.runHedged(ctx, 0, cands, attempt)
		if err != nil || &p[0] != &want[0] {
			t.Fatalf("read %d: page %p err %v", i, p, err)
		}
		// (Fewer is fine: an earlier test's canceled losers may still have
		// been unwinding when base was taken.)
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("read %d: %d goroutines, %d before the first read", i, g, base)
		}
	}
	if attempts != 1000 {
		t.Fatalf("%d attempts for 1000 reads", attempts)
	}
	if s := h.Stats(); s.Hedges != 0 || s.HedgeWins != 0 || s.HedgeCancels != 0 {
		t.Fatalf("hedge counters moved: %+v", s)
	}
	if r := h.repSnap(0); r.fails != 0 || r.outlived != 0 || r.ewma == 0 {
		t.Fatalf("replica 0 after 1000 answers: %+v", r)
	}

	// The objects a read creates: none. Its state, the hedge timer and the
	// candidate storage come from the tracker's free list, and the state is the
	// context the caller's attempts run under. The channels, the hedges'
	// contexts and every goroutine wait for the timer.
	const pinned = 0
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := h.runHedged(ctx, 0, cands, attempt); err != nil {
			t.Fatal(err)
		}
	}); avg > pinned {
		t.Fatalf("a read answered by the first replica allocates %.1f objects, pinned at %d", avg, pinned)
	}
}

// TestHedgedDeadlineOverrunLaunchesOneHedge: the first attempt blocks past
// the deadline, the hedge to the second candidate wins, the first's context
// is canceled and the time it was outlived by is held against it.
func TestHedgedDeadlineOverrunLaunchesOneHedge(t *testing.T) {
	h := hedgeTracker(3, 200*time.Microsecond)
	want := page.New(7)
	var firstCanceled atomic.Bool
	var calls atomic.Int32
	p, err := h.runHedged(context.Background(), 0, []int{0, 1, 2}, func(ctx context.Context, idx int, hedged bool) (page.Page, error) {
		calls.Add(1)
		switch idx {
		case 0:
			if hedged {
				t.Error("the first attempt was flagged as a hedge")
			}
			<-ctx.Done()
			firstCanceled.Store(true)
			return nil, ctx.Err()
		case 1:
			if !hedged {
				t.Error("the attempt launched on the deadline was not flagged as a hedge")
			}
			return want, nil
		}
		t.Errorf("attempt on candidate %d", idx)
		return nil, errors.New("unexpected")
	})
	if err != nil || &p[0] != &want[0] {
		t.Fatalf("page %p err %v, want the hedge's page", p, err)
	}
	if !firstCanceled.Load() {
		t.Fatal("runHedged returned before the first attempt was canceled and unwound")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2", n)
	}
	if s := h.Stats(); s.Hedges != 1 || s.HedgeWins != 1 || s.HedgeCancels != 1 {
		t.Fatalf("counters %+v, want one hedge, one win, one cancel", s)
	}
	if r := h.repSnap(0); r.outlived != 1 || r.fails != 0 || r.ewma < (200*time.Microsecond).Seconds() {
		t.Fatalf("outlived replica: %+v, want one outlived mark and an EWMA of at least the deadline", r)
	}
	if r := h.repSnap(1); r.outlived != 0 || r.fails != 0 || r.ewma == 0 {
		t.Fatalf("winning replica: %+v", r)
	}
}

// TestHedgedRefusalFailsOverOnTheCaller: a refusal moves on to the next
// candidate at once, on the calling goroutine, not as a hedge — the deadline
// here is a minute, so anything that waited for the timer would hang.
func TestHedgedRefusalFailsOverOnTheCaller(t *testing.T) {
	h := hedgeTracker(3, time.Minute)
	want := page.New(7)
	var order []int // unsynchronized: the caller runs every attempt
	base := runtime.NumGoroutine()
	p, err := h.runHedged(context.Background(), 0, []int{2, 0, 1}, func(_ context.Context, idx int, hedged bool) (page.Page, error) {
		order = append(order, idx)
		if hedged {
			t.Errorf("failover to candidate %d flagged as a hedge", idx)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("%d goroutines during the attempt on %d, %d before the read", g, idx, base)
		}
		if idx == 1 {
			return want, nil
		}
		return nil, storage.ErrIncomplete
	})
	if err != nil || &p[0] != &want[0] {
		t.Fatalf("page %p err %v", p, err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("attempt order %v, want [2 0 1]", order)
	}
	if s := h.Stats(); s.Hedges != 0 || s.HedgeWins != 0 || s.HedgeCancels != 0 {
		t.Fatalf("hedge counters moved on a failover: %+v", s)
	}
	for _, idx := range []int{2, 0} {
		if r := h.repSnap(idx); r.fails != 1 {
			t.Fatalf("refusing replica %d: %+v, want one failure", idx, r)
		}
	}
}

// TestHedgedEveryCandidateRefuses: the last verdict is the read's.
func TestHedgedEveryCandidateRefuses(t *testing.T) {
	h := hedgeTracker(3, time.Minute)
	errs := []error{storage.ErrCorruptPage, storage.ErrWipedSegment, storage.ErrIncomplete}
	_, err := h.runHedged(context.Background(), 0, []int{0, 1, 2}, func(_ context.Context, idx int, _ bool) (page.Page, error) {
		return nil, errs[idx]
	})
	if !errors.Is(err, storage.ErrIncomplete) {
		t.Fatalf("got %v, want the last candidate's verdict", err)
	}
	if _, err := h.runHedged(context.Background(), 0, nil, nil); !errors.Is(err, ErrReadUnavailable) {
		t.Fatalf("no candidates: %v", err)
	}
}

// TestHedgedCallerCancelBlamesNobody: the caller giving up mid-attempt ends
// the read with its own error and is evidence against no replica.
func TestHedgedCallerCancelBlamesNobody(t *testing.T) {
	h := hedgeTracker(3, 100*time.Microsecond)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	base := runtime.NumGoroutine()
	go func() {
		for started.Load() < 2 { // mid-read: the first attempt and a hedge are out
			runtime.Gosched()
		}
		cancel()
	}()
	_, err := h.runHedged(ctx, 0, []int{0, 1, 2}, func(actx context.Context, idx int, _ bool) (page.Page, error) {
		started.Add(1)
		<-actx.Done()
		return nil, actx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want the caller's context.Canceled", err)
	}
	if g := settleGoroutines(base); g > base {
		t.Fatalf("%d goroutines after the abandoned read, %d before", g, base)
	}
	for idx := 0; idx < 3; idx++ {
		if r := h.repSnap(idx); r.fails != 0 || r.outlived != 0 || r.ewma != 0 {
			t.Fatalf("replica %d blamed for the caller's cancel: %+v", idx, r)
		}
	}
	if s := h.Stats(); s.HedgeWins != 0 || s.HedgeCancels != 0 {
		t.Fatalf("an abandoned read counted a win or a cancel: %+v", s)
	}
}

// TestHedgedTimerFiresAsFirstAttemptReturns: the first attempt takes about
// the deadline — swept from a little under to a little over it — so over many
// reads the timer fires before, while and after the attempt returns: Stop
// comes too late and the hedge finds a read already decided, or wins it, or
// is canceled. Whichever: one result per read, every attempt accounted for
// once, nothing left running.
func TestHedgedTimerFiresAsFirstAttemptReturns(t *testing.T) {
	const deadline, reads = 50 * time.Microsecond, 600
	h := hedgeTracker(2, deadline)
	pages := [2]page.Page{page.New(0), page.New(1)}
	var attempts, answered atomic.Uint64
	base := runtime.NumGoroutine()
	for i := 0; i < reads; i++ {
		first := deadline + time.Duration(i%30-10)*time.Microsecond
		p, err := h.runHedged(context.Background(), 0, []int{0, 1}, func(ctx context.Context, idx int, hedged bool) (page.Page, error) {
			attempts.Add(1)
			if idx == 0 {
				if err := busyFor(ctx, first); err != nil {
					return nil, err
				}
			}
			answered.Add(1)
			return pages[idx], nil
		})
		if err != nil || (&p[0] != &pages[0][0] && &p[0] != &pages[1][0]) {
			t.Fatalf("read %d: page %p err %v", i, p, err)
		}
	}
	if g := settleGoroutines(base); g > base {
		t.Fatalf("%d goroutines after the reads, %d before", g, base)
	}
	s := h.Stats()
	if got := attempts.Load(); got != reads+s.Hedges {
		t.Fatalf("%d attempts for %d reads and %d hedges", got, reads, s.Hedges)
	}
	if s.Hedges == 0 || s.HedgeWins > s.Hedges || s.HedgeCancels > s.Hedges {
		t.Fatalf("no hedge at all, or more wins or cancels than hedges: %+v", s)
	}
	// Every attempt fed exactly one observation: an answer or an outliving.
	// (The outlived streak resets on an answer, so count answers by oks.)
	var oks uint64
	reps := *h.reps.Load()
	for _, r := range reps[0] {
		r.mu.Lock()
		oks += r.oks
		if r.errs != 0 {
			t.Errorf("a replica was blamed with a failure: nothing here refuses")
		}
		r.mu.Unlock()
	}
	if oks != answered.Load() {
		t.Fatalf("%d answers observed, %d given", oks, answered.Load())
	}
	t.Logf("%d reads: %d hedges, %d wins, %d cancels", reads, s.Hedges, s.HedgeWins, s.HedgeCancels)
}

// TestHedgedStress: eight goroutines, three candidates, per-attempt delays
// drawn around the deadline, refusals mixed in. Run under -race -count=20 by
// `make race`. Every read ends with exactly one result, which is a page one
// of its own attempts answered with or the error of an all-refused read.
func TestHedgedStress(t *testing.T) {
	const deadline, workers, reads = 40 * time.Microsecond, 8, 2000
	h := hedgeTracker(3, deadline)
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var served, refused atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < reads; i++ {
				// This read's script, fixed before it starts: a delay and a
				// verdict per candidate.
				var delay [3]time.Duration
				var refuse [3]bool
				var answer [3]page.Page
				for c := range delay {
					delay[c] = time.Duration(rng.Int63n(int64(2 * deadline)))
					if rng.Intn(3) == 0 {
						delay[c] = 0
					}
					refuse[c] = rng.Intn(4) == 0
					answer[c] = page.New(core.PageID(c))
				}
				p, err := h.runHedged(context.Background(), 0, []int{0, 1, 2}, func(ctx context.Context, idx int, _ bool) (page.Page, error) {
					if err := busyFor(ctx, delay[idx]); err != nil {
						return nil, err
					}
					if refuse[idx] {
						return nil, storage.ErrIncomplete
					}
					return answer[idx], nil
				})
				switch {
				case err == nil:
					idx := int(p.ID())
					if idx > 2 || &p[0] != &answer[idx][0] || refuse[idx] {
						t.Errorf("worker %d read %d: served a page none of its attempts answered with", w, i)
						return
					}
					served.Add(1)
				case errors.Is(err, storage.ErrIncomplete) && refuse[0] && refuse[1] && refuse[2]:
					refused.Add(1)
				default:
					t.Errorf("worker %d read %d: %v with refusals %v", w, i, err, refuse)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := served.Load() + refused.Load(); got != workers*reads && !t.Failed() {
		t.Fatalf("%d results for %d reads", got, workers*reads)
	}
	if g := settleGoroutines(base); g > base {
		t.Fatalf("%d goroutines after the stress, %d before", g, base)
	}
	s := h.Stats()
	if s.Hedges == 0 || s.HedgeWins == 0 || s.HedgeCancels == 0 {
		t.Fatalf("delays around the deadline never exercised the hedge path: %+v", s)
	}
	t.Logf("%d served, %d all-refused; %d hedges, %d wins, %d cancels", served.Load(), refused.Load(), s.Hedges, s.HedgeWins, s.HedgeCancels)
}
