package engine

import (
	"sync"

	"aurora/internal/core"
)

// Event is one element of the log stream the writer sends to its read
// replicas: redo records in LSN order plus the writer's VDL at emission
// time (§4.2.4). Events with no records are pure VDL advancements.
type Event struct {
	Records []core.Record
	VDL     core.LSN
}

type subscriber struct {
	ch   chan Event
	done chan struct{}
}

// feed fans the log stream out to subscribers. Record events are enqueued
// in frame order — the commit pipeline's framer publishes one event per
// framed group, and VDL-only advancement events may interleave from the
// groups' completions (subscribers take the max, so ordering of pure VDL
// events is immaterial). A dedicated goroutine pumps the queue so the
// write path never blocks on a slow replica's channel.
type feed struct {
	mu     sync.Mutex
	queue  []Event
	subs   map[int]*subscriber
	nextID int
	wake   chan struct{}
	closed bool
}

func newFeed() *feed {
	f := &feed{subs: make(map[int]*subscriber), wake: make(chan struct{}, 1)}
	go f.pump()
	return f
}

// publish enqueues an event for delivery. With no subscribers attached the
// event is dropped outright — identical semantics to the pump fanning out
// to an empty set (subscribers only see events published after they
// attach), but the hot path skips the queue append entirely.
func (f *feed) publish(ev Event) {
	f.mu.Lock()
	if f.closed || len(f.subs) == 0 {
		f.mu.Unlock()
		return
	}
	f.queue = append(f.queue, ev)
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// active reports whether any subscriber is attached. Publishers use it to
// skip building record clones nobody would receive; a subscriber attaching
// right after the check simply misses that event, exactly as subscribe's
// contract allows.
func (f *feed) active() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.closed && len(f.subs) > 0
}

func (f *feed) pump() {
	for range f.wake {
		for {
			f.mu.Lock()
			if len(f.queue) == 0 {
				f.mu.Unlock()
				break
			}
			ev := f.queue[0]
			f.queue = f.queue[1:]
			subs := make([]*subscriber, 0, len(f.subs))
			for _, s := range f.subs {
				subs = append(subs, s)
			}
			f.mu.Unlock()
			for _, s := range subs {
				select {
				case s.ch <- ev:
				case <-s.done: // subscriber cancelled: drop
				}
			}
		}
	}
	// Feed closed: signal every subscriber.
	f.mu.Lock()
	for id, s := range f.subs {
		close(s.ch)
		delete(f.subs, id)
	}
	f.mu.Unlock()
}

// subscribe attaches a new consumer; it receives all events published
// after this call.
func (f *feed) subscribe() (<-chan Event, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	id := f.nextID
	f.nextID++
	s := &subscriber{ch: make(chan Event, 4096), done: make(chan struct{})}
	f.subs[id] = s
	var once sync.Once
	return s.ch, func() {
		once.Do(func() {
			f.mu.Lock()
			delete(f.subs, id)
			f.mu.Unlock()
			close(s.done)
		})
	}
}

func (f *feed) close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	close(f.wake)
}

// Subscribe attaches a log-stream consumer (a read replica) to the writer.
// The returned cancel function detaches it.
func (db *DB) Subscribe() (<-chan Event, func()) { return db.feed.subscribe() }
