package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrAllocatorClosed is returned by Alloc after Close, e.g. when the writer
// instance is shutting down or has crashed.
var ErrAllocatorClosed = errors.New("core: LSN allocator closed")

// DefaultLAL is the default LSN Allocation Limit. The paper sets it to 10
// million; the constant here is the same and is scaled down by tests that
// want to exercise back-pressure quickly.
const DefaultLAL = 10_000_000

// Allocator hands out monotonically increasing LSNs to the writer, subject
// to the LSN Allocation Limit: no LSN may be allocated with a value greater
// than VDL + LAL. This bounds how far the database can run ahead of the
// storage service and introduces back-pressure that throttles incoming
// writes when storage or network cannot keep up (§4.2.1).
type Allocator struct {
	mu     sync.Mutex
	cond   *sync.Cond
	next   LSN // next LSN to hand out
	bound  LSN // highest LSN that may be handed out: the last VDL reported + LAL
	lal    uint64
	closed bool
}

// NewAllocator returns an allocator that will hand out LSNs starting at
// start+1 with the given allocation limit. lal <= 0 selects DefaultLAL.
func NewAllocator(start LSN, lal int64) *Allocator {
	if lal <= 0 {
		lal = DefaultLAL
	}
	a := &Allocator{next: start + 1, bound: start + LSN(lal), lal: uint64(lal)}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Alloc reserves n consecutive LSNs and returns the first. It blocks while
// the allocation would exceed VDL + LAL, resuming when AdvanceVDL frees
// headroom, the allocator closes, or ctx is canceled. n must be >= 1.
func (a *Allocator) Alloc(ctx context.Context, n int) (LSN, error) {
	if n < 1 {
		panic("core: Alloc of non-positive count")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.closed && a.next+LSN(n)-1 > a.bound {
		// Back-pressure wait: a context firing must wake the cond, so hook
		// a broadcast onto cancellation for the duration of the wait.
		stop := context.AfterFunc(ctx, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		defer stop()
		for !a.closed && ctx.Err() == nil && a.next+LSN(n)-1 > a.bound {
			a.cond.Wait()
		}
	}
	if a.closed {
		return ZeroLSN, ErrAllocatorClosed
	}
	if err := ctx.Err(); err != nil {
		return ZeroLSN, fmt.Errorf("core: Alloc canceled: %w", err)
	}
	first := a.next
	a.next += LSN(n)
	return first, nil
}

// AdvanceVDL moves the allocation bound to vdl + LAL, releasing any writers
// blocked on it. The allocator keeps no VDL of its own: a report that would
// not raise the bound is ignored, so reports may arrive out of order.
func (a *Allocator) AdvanceVDL(vdl LSN) {
	a.mu.Lock()
	if b := vdl + LSN(a.lal); b > a.bound {
		a.bound = b
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// HighestAllocated returns the highest LSN handed out so far.
func (a *Allocator) HighestAllocated() LSN {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next - 1
}

// Limit returns the allocation limit (LAL): the maximum number of LSNs
// that may be outstanding beyond the VDL. A single allocation larger than
// this can never succeed, so batching callers must cap their requests.
func (a *Allocator) Limit() uint64 { return a.lal }

// Close releases all blocked allocators with ErrAllocatorClosed.
func (a *Allocator) Close() {
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
}
