package engine

import (
	"slices"
	"sync"

	"aurora/internal/core"
)

// Stream is the writer's redo stream to one read replica (§4.2.4): the
// framed records the replica has not taken yet, in LSN order, and the
// highest VDL published to it. The commit pipeline appends a group's records
// before it ships the group and raises the VDL once the group is durable, so
// every record at or below the stream's VDL is already in the buffer.
// Publishing never blocks and no goroutine sits between the framer and the
// replica; each replica drains only its own stream, so one that stops
// draining holds up no other (its own buffer grows without bound).
type Stream struct {
	owner *streams
	wake  chan struct{} // one slot: signalled after a VDL raise and at the end

	mu     sync.Mutex
	recs   []core.Record
	vdl    core.LSN
	closed bool
}

// streams is the set of streams attached to one writer.
type streams struct {
	mu     sync.Mutex
	list   []*Stream
	closed bool
}

// Subscribe attaches a new stream to the writer. It carries the records of
// every group framed after this call; the writer ends it when it closes or
// crashes, and Close detaches it earlier.
func (db *DB) Subscribe() *Stream {
	ss := db.streams
	s := &Stream{owner: ss, wake: make(chan struct{}, 1)}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		s.end()
	} else {
		ss.list = append(ss.list, s)
	}
	return s
}

// append adds a framed group's records to every attached stream. The framer
// calls it before the group ships, so no VDL covering them is published yet.
// The records are copied by value and their Data shared: nothing writes to a
// commit's MTR or its redo bytes once it is framed.
func (ss *streams) append(ms []*core.MTR) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.list {
		s.mu.Lock()
		for _, m := range ms {
			s.recs = append(s.recs, m.Records...)
		}
		s.mu.Unlock()
	}
}

// publish raises every attached stream's VDL to vdl (completions may run
// out of order, so it is a max) and wakes its consumer.
func (ss *streams) publish(vdl core.LSN) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.list {
		s.mu.Lock()
		s.vdl = max(s.vdl, vdl)
		s.mu.Unlock()
		s.signal()
	}
}

// close ends every stream: the writer closed or crashed.
func (ss *streams) close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.closed = true
	for _, s := range ss.list {
		s.end()
	}
	ss.list = nil
}

func (s *Stream) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// end drops the buffer and wakes the consumer to find the stream ended.
func (s *Stream) end() {
	s.mu.Lock()
	s.closed, s.recs = true, nil
	s.mu.Unlock()
	s.signal()
}

// Wake returns the channel signalled after each VDL raise and once when the
// stream ends; the consumer calls Take after each signal.
func (s *Stream) Wake() <-chan struct{} { return s.wake }

// Take appends the buffered records at or below the stream's VDL to dst,
// removes them from the stream and returns dst with that VDL. The VDL is
// always a CPL, so the records are whole MTRs. ok is false once the stream
// has ended. The records left above the VDL move to the buffer's start, so
// neither the stream's buffer nor a dst the caller reuses regrows in steady
// state.
func (s *Stream) Take(dst []core.Record) (recs []core.Record, vdl core.LSN, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return dst, 0, false
	}
	cut := 0
	for cut < len(s.recs) && s.recs[cut].LSN <= s.vdl {
		cut++
	}
	dst = append(dst, s.recs[:cut]...)
	n := copy(s.recs, s.recs[cut:])
	clear(s.recs[n:]) // drop the moved-out records' references to their Data
	s.recs = s.recs[:n]
	return dst, s.vdl, true
}

// Buffered returns the number of records in the stream not taken yet.
func (s *Stream) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Close detaches the stream from the writer and drops its buffer; it is
// idempotent.
func (s *Stream) Close() {
	ss := s.owner
	ss.mu.Lock()
	if i := slices.Index(ss.list, s); i >= 0 {
		ss.list = slices.Delete(ss.list, i, i+1)
	}
	ss.mu.Unlock()
	s.end()
}
