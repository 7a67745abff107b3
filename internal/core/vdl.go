package core

import (
	"sync"
	"sync/atomic"
)

// VDLTracker maintains the Volume Durable LSN and lets callers wait for it
// to reach a target. Commits do not wait here — a commit is completed by the
// goroutine that makes its group durable (§4.2.2; volume.durableWindow) — so
// the waiters are the occasional ones: a fence draining the write path, a
// caller of WaitDurable. They sit in an unsorted slice.
type VDLTracker struct {
	vdl     atomic.Uint64
	mu      sync.Mutex
	waiters []waiter
	closed  bool
}

type waiter struct {
	target LSN
	ch     chan struct{}
}

// NewVDLTracker returns a tracker initialised to start.
func NewVDLTracker(start LSN) *VDLTracker {
	t := &VDLTracker{}
	t.vdl.Store(uint64(start))
	return t
}

// VDL returns the current volume durable LSN.
func (t *VDLTracker) VDL() LSN { return LSN(t.vdl.Load()) }

// Advance moves the VDL forward (regressions are ignored) and wakes every
// waiter whose target has been reached. It reports whether the VDL moved.
func (t *VDLTracker) Advance(vdl LSN) bool {
	for {
		cur := t.vdl.Load()
		if uint64(vdl) <= cur {
			return false
		}
		if t.vdl.CompareAndSwap(cur, uint64(vdl)) {
			break
		}
	}
	t.mu.Lock()
	kept := t.waiters[:0]
	for _, w := range t.waiters {
		if w.target <= vdl {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	clear(t.waiters[len(kept):]) // drop the channel references
	t.waiters = kept
	t.mu.Unlock()
	return true
}

// WaitChan returns a channel that is closed once the VDL reaches target.
// If the target is already durable the channel is closed immediately.
func (t *VDLTracker) WaitChan(target LSN) <-chan struct{} {
	ch := make(chan struct{})
	t.mu.Lock()
	if t.closed || t.VDL() >= target {
		t.mu.Unlock()
		close(ch)
		return ch
	}
	t.waiters = append(t.waiters, waiter{target: target, ch: ch})
	t.mu.Unlock()
	return ch
}

// Wait blocks until the VDL reaches target or the tracker is closed.
func (t *VDLTracker) Wait(target LSN) { <-t.WaitChan(target) }

// PendingWaiters returns the number of registered waiters (observability).
func (t *VDLTracker) PendingWaiters() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.waiters)
}

// Close releases all current and future waiters unconditionally. Callers
// must re-check durability themselves after a close (writer crash).
func (t *VDLTracker) Close() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		for _, w := range t.waiters {
			close(w.ch)
		}
		t.waiters = nil
	}
	t.mu.Unlock()
}
