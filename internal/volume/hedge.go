package volume

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/core"
	"aurora/internal/page"
	"aurora/internal/storage"
)

// Hedged reads. One logical page read runs over an ordered candidate list,
// caller-runs-first: the calling goroutine runs the first attempt itself and,
// when an attempt is refused with nothing else in flight, fails over to the
// next candidate itself, at once. Its state, a hedgedRead, comes from the
// tracker's free list with the hedge timer and the candidate storage Order
// fills, and the caller's attempts run under that state itself as their
// context. In the common case the first replica answers before the PG's read
// deadline: the timer is armed and stopped, the state goes back to the list,
// and the read was one chain of function calls that allocated nothing.
//
// Whenever the newest attempt has run for the deadline without a verdict the
// timer fires and a hedge to the next candidate runs on the timer's own
// goroutine, under a context of its own derived from the read's, after arming
// the timer for the hedge after it: at most one new attempt per deadline
// overrun. Only then is anything made: the hedge's context and cancel
// function, the wake channel on a state's first hedge, the read's done
// channel if none is left from an earlier read, and, when the caller's context
// can be canceled, a watch on it. The first success wins, whoever ran it: a
// winning hedge cancels the caller's in-flight attempt (and its sibling
// hedges), which makes the caller return the hedge's page; a winning caller
// cancels the hedges on its way out. A loser parked in a simulated network hop
// therefore unwinds at once instead of running to completion (HedgeCancels
// counts them). The caller does not wait for it: the state goes back to the
// free list only once no timer firing or hedge goroutine can still touch it.
//
// Health observations are fed for every attempt that ran to its own verdict,
// so a slow loser still raises its replica's EWMA and sinks in future
// orderings; a loser that merely got canceled is not blamed for failing, only
// recorded as outlived. When every candidate refuses, the last verdict is
// returned, except that a stale-geometry nack is sticky. Cancellation of the
// caller's context, or the end of the reading instance's lifetime, abandons
// the read and blames nobody.

// attemptFunc makes one attempt of a read on candidate idx, under ctx; hedged
// reports that it runs as a hedge, on the timer's goroutine.
type attemptFunc func(ctx context.Context, idx int, hedged bool) (page.Page, error)

// hedgedRead is the state of one hedged read. Until the hedge timer fires the
// calling goroutine is the only one to touch it; from then on it is shared
// with each hedge's goroutine under mu. It is also the context the caller's
// attempts run under (Err, Done, AfterFunc below).
type hedgedRead struct {
	h        *HealthTracker
	timer    *time.Timer // the hedge timer, made with the state and re-armed by every read
	readFn   attemptFunc // readAttempt, bound once
	cancelFn func()      // cancel, bound once: what a watch runs
	candBuf  [maxStackReplicas]int

	// Set by whoever starts the read; fixed until the state is freed.
	parent   context.Context // the caller's
	life     context.Context // the reading instance's lifetime (a Reader's); nil for the writer
	pg       core.PGID
	cands    []int
	attempt  attemptFunc
	deadline time.Duration
	page     pageRead // readAttempt's parameters

	mu           sync.Mutex
	next         int       // cands[next] is the next candidate to try
	inflight     int       // attempts without a verdict yet
	launched     time.Time // when the newest attempt started
	done         bool      // decided — won, or the caller has left; later verdicts are dropped
	won          bool
	val          page.Page
	lastErr      error
	armed        bool                 // the timer is set; its firing holds one of refs
	due          time.Time            // when the armed timer fires
	refs         int                  // the caller until it leaves, an armed timer, each running firing
	hedgeCancels []context.CancelFunc // one per hedge launched
	wake         chan struct{}        // made by a state's first hedge: a hedge has its verdict

	// The context of the caller's attempts, canceled by a winning hedge or by
	// a watch on parent or life, which is set once someone waits on Done.
	cmu      sync.Mutex
	canceled atomic.Bool
	doneCh   chan struct{} // made by the first Done; reused by later reads while open
	watching bool          // this read's watches are set
	watches  []func() bool // their stop functions
	afters   []*afterFunc  // contexts derived from this one
	lost     bool          // a watch fired and may still run: the state is never reused
}

// afterFunc is one AfterFunc registration.
type afterFunc struct {
	f    func()
	done bool // ran or stopped
}

// newRead takes a read's state from the tracker's free list, or makes one.
// life is the reading instance's lifetime, nil for the writer.
func (h *HealthTracker) newRead(ctx, life context.Context, pg core.PGID) *hedgedRead {
	h.idleMu.Lock()
	var r *hedgedRead
	if n := len(h.idle); n > 0 {
		r = h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
	}
	h.idleMu.Unlock()
	if r == nil {
		r = &hedgedRead{h: h}
		r.readFn = r.readAttempt
		r.cancelFn = r.cancel
		r.timer = time.AfterFunc(time.Hour, r.hedge)
		r.timer.Stop()
	}
	r.parent, r.life, r.pg, r.cands = ctx, life, pg, r.candBuf[:0]
	return r
}

// free puts r back on the tracker's free list, cleared of its read. The caller
// is the last goroutine that could touch r.
func (h *HealthTracker) free(r *hedgedRead) {
	if r.lost {
		return
	}
	r.parent, r.life, r.cands, r.attempt, r.page = nil, nil, nil, nil, pageRead{}
	r.done, r.won, r.val, r.lastErr = false, false, nil, nil
	clear(r.hedgeCancels)
	r.hedgeCancels = r.hedgeCancels[:0]
	select {
	case <-r.wake:
	default:
	}
	if r.canceled.Swap(false) {
		r.doneCh = nil
	}
	r.watching = false
	clear(r.afters)
	r.afters = r.afters[:0]
	h.idleMu.Lock()
	h.idle = append(h.idle, r)
	h.idleMu.Unlock()
}

// run executes the read over r.cands, making every attempt with attempt, and
// frees r once nothing can touch it any more: r must not be used after.
func (r *hedgedRead) run(attempt attemptFunc) (page.Page, error) {
	h := r.h
	if len(r.cands) == 0 {
		h.free(r)
		return nil, ErrReadUnavailable
	}
	idx, start := r.cands[0], time.Now()
	r.attempt = attempt
	r.next, r.inflight, r.launched, r.lastErr, r.refs = 1, 1, start, ErrReadUnavailable, 1
	if len(r.cands) > 1 {
		r.deadline = h.ReadDeadline(r.pg)
		// Under mu, because the firing takes it and may come before Reset
		// has returned.
		r.mu.Lock()
		r.armLocked(r.deadline)
		r.mu.Unlock()
	}
	for {
		v, err := r.try(r, idx, false, start)
		r.mu.Lock()
		r.finishLocked(v, err, false)
		// Refused while hedges are still out: theirs are the verdicts left
		// to wait for.
		for !r.done && r.inflight > 0 && r.abandoned() == nil {
			wake := r.wake
			r.mu.Unlock()
			select {
			case <-wake:
			case <-r.Done():
			}
			r.mu.Lock()
		}
		if r.done || r.next == len(r.cands) || r.abandoned() != nil {
			break
		}
		idx, start = r.cands[r.next], time.Now()
		r.next++
		r.inflight++
		r.launched = start
		r.mu.Unlock()
	}
	// The caller leaves, whatever the outcome: the timer is stopped, what is
	// still out is canceled, and a hedge that fires or finishes from here on
	// finds the read decided and does nothing.
	r.done = true
	r.stopLocked()
	r.unwatchLocked()
	won, val, lastErr, abandoned := r.won, r.val, r.lastErr, r.abandoned()
	r.leaveLocked()
	if won {
		return val, nil
	}
	if abandoned != nil {
		return nil, abandoned
	}
	return nil, lastErr
}

// armLocked sets the unarmed hedge timer to fire after d; the firing holds a
// reference on the state.
func (r *hedgedRead) armLocked(d time.Duration) {
	r.armed = true
	r.refs++
	r.rearmLocked(d)
}

func (r *hedgedRead) rearmLocked(d time.Duration) {
	r.due = time.Now().Add(d)
	r.timer.Reset(d)
}

// leaveLocked drops the reference of the goroutine leaving and unlocks; the
// last one out frees the state.
func (r *hedgedRead) leaveLocked() {
	r.refs--
	last := r.refs == 0
	r.mu.Unlock()
	if last {
		r.h.free(r)
	}
}

// try makes one attempt and feeds its verdict to the health tracker.
func (r *hedgedRead) try(actx context.Context, idx int, hedged bool, start time.Time) (page.Page, error) {
	v, err := r.attempt(actx, idx, hedged)
	h := r.h
	if err == nil {
		lat := time.Since(start)
		h.ObserveOK(r.pg, idx, lat)
		h.observeReadLatency(r.pg, lat)
	} else if errors.Is(err, context.Canceled) {
		// Canceled because a sibling won: the time it was outlived by still
		// counts against its latency EWMA (an abandoned read is not evidence).
		if r.abandoned() == nil {
			h.ObserveOutlived(r.pg, idx, time.Since(start))
		}
	} else {
		h.ObserveFailure(r.pg, idx)
	}
	return v, err
}

// finishLocked takes one attempt's verdict into the read's state and reports
// whether it won the read — in which case the attempts still out are losers
// for whoever ran this one to cancel.
func (r *hedgedRead) finishLocked(v page.Page, err error, hedged bool) bool {
	r.inflight--
	if r.done {
		return false
	}
	if err == nil {
		r.done, r.won, r.val = true, true, v
		if hedged {
			r.h.hedgeWins.Inc()
		}
		if r.inflight > 0 {
			r.h.hedgeCancels.Add(uint64(r.inflight))
		}
		return true
	}
	// The last verdict is reported, except that a stale-geometry nack is
	// sticky: it tells the caller its routing table is superseded, and a later
	// refusal from a replica that has not heard of the flip yet (a lagging
	// one, tried last) must not mask it and turn a re-routable read into a
	// failed one.
	if !errors.Is(err, context.Canceled) && !errors.Is(r.lastErr, storage.ErrStaleGeometry) {
		r.lastErr = err
	}
	return false
}

// stopLocked stops the hedge timer, dropping the reference an armed one
// holds, and cancels every hedge.
//
// A timer already past due is left to fire, and find the read decided. It
// sits in the timer heap of the processor it was first armed on, which a
// reused timer keeps across Stop and Reset, and when that processor is idle
// a sub-millisecond timer fires only when the network poller wakes, a
// millisecond late. Stopped there, it would come back there at the next
// Reset — late again; fired, it is armed next on the processor that arms it.
func (r *hedgedRead) stopLocked() {
	if r.armed && time.Now().Before(r.due) && r.timer.Stop() {
		r.armed = false
		r.refs--
	}
	for _, cancel := range r.hedgeCancels {
		cancel()
	}
}

// hedge is the timer's function; it runs on the timer's own goroutine. The
// firing is a prompt, the state decides: a hedge is due only if the read is
// undecided, a candidate is left, and the newest attempt — which the caller
// may have launched since the timer was armed, failing over after a refusal —
// has itself outrun the deadline.
func (r *hedgedRead) hedge() {
	r.mu.Lock()
	r.armed = false // the arming's reference is this firing's now
	if r.done || r.next == len(r.cands) || r.abandoned() != nil {
		r.leaveLocked()
		return
	}
	start := time.Now()
	if wait := r.deadline - start.Sub(r.launched); wait > 0 {
		r.armed = true // and the timer's again
		r.rearmLocked(wait)
		r.mu.Unlock()
		return
	}
	idx := r.cands[r.next]
	r.next++
	r.inflight++
	r.launched = start
	r.h.hedges.Inc()
	hctx, cancel := context.WithCancel(r)
	r.hedgeCancels = append(r.hedgeCancels, cancel)
	if r.wake == nil {
		r.wake = make(chan struct{}, 1)
	}
	if r.next < len(r.cands) {
		r.armLocked(r.deadline)
	}
	r.mu.Unlock()

	v, err := r.try(hctx, idx, true, start)
	r.mu.Lock()
	if r.finishLocked(v, err, true) {
		// The hedges first, so that their contexts let go of the read's,
		// then the caller's attempt: it returns this page.
		r.stopLocked()
		r.cancel()
	}
	// One token is enough: it tells the caller, if it is waiting, to look at
	// the state again.
	select {
	case r.wake <- struct{}{}:
	default:
	}
	r.leaveLocked()
}

// The read as the context of the caller's attempts. Its deadline and values
// are the caller's; it adds the cancellation a winning hedge needs, and the
// end of the reading instance's lifetime. Done and its watches are made only
// when something waits on it; Err alone polls the contexts it joins.

func (r *hedgedRead) Deadline() (time.Time, bool) { return r.parent.Deadline() }

func (r *hedgedRead) Value(key any) any { return r.parent.Value(key) }

func (r *hedgedRead) Err() error {
	if err := r.abandoned(); err != nil {
		return err
	}
	if r.canceled.Load() {
		return context.Canceled
	}
	return nil
}

// abandoned reports the caller's context's error, or else the lifetime's: a
// read that ends for either reason is evidence against no replica.
func (r *hedgedRead) abandoned() error {
	if err := r.parent.Err(); err != nil {
		return err
	}
	if r.life != nil {
		return r.life.Err()
	}
	return nil
}

// Done returns the read's channel. The first call of a read sets a watch on
// the caller's context and on the lifetime when either can end: their
// cancellation closes the channel only through it.
func (r *hedgedRead) Done() <-chan struct{} {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.doneCh == nil {
		r.doneCh = make(chan struct{})
	}
	if !r.watching {
		r.watching = true
		for _, ctx := range [2]context.Context{r.parent, r.life} {
			if ctx != nil && ctx.Done() != nil {
				r.watches = append(r.watches, context.AfterFunc(ctx, r.cancelFn))
			}
		}
	}
	return r.doneCh
}

// AfterFunc arranges for f to run in its own goroutine once the read is
// canceled. The context package calls it when a context is derived from the
// read's (a hedge's), so that derivation starts no watcher goroutine.
func (r *hedgedRead) AfterFunc(f func()) (stop func() bool) {
	a := &afterFunc{f: f}
	r.cmu.Lock()
	if r.canceled.Load() {
		a.done = true
		go f()
	} else {
		r.afters = append(r.afters, a)
	}
	r.cmu.Unlock()
	return func() bool {
		r.cmu.Lock()
		defer r.cmu.Unlock()
		stopped := !a.done
		a.done = true
		return stopped
	}
}

// cancel cancels the caller's attempts: a hedge won, or a watched context
// ended.
func (r *hedgedRead) cancel() {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.canceled.Swap(true) {
		return
	}
	if r.doneCh == nil {
		r.doneCh = make(chan struct{})
	}
	close(r.doneCh)
	for _, a := range r.afters {
		if !a.done {
			a.done = true
			go a.f()
		}
	}
}

// unwatchLocked stops this read's watches. One that has already fired may
// still be about to run cancel, so its state is never reused.
func (r *hedgedRead) unwatchLocked() {
	r.cmu.Lock()
	for _, stop := range r.watches {
		if !stop() {
			r.lost = true
		}
	}
	clear(r.watches)
	r.watches = r.watches[:0]
	r.cmu.Unlock()
}
