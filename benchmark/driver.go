package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	valueSize   = 100
	maxAttempts = 5
	retryPause  = 100 * time.Microsecond
)

// run is one workload on one system: the generated inputs, the ledger every
// result is checked against, and the clients' recordings.
type run struct {
	spec    *spec
	sys     *system
	rows    int
	keys    [][]byte
	clients []*client
	t0      time.Time // origin of every recorded offset

	// acked[i] is the last version of key i whose commit returned; seen[i]
	// the newest version a replica read returned. Only the owning client
	// touches index i while clients run.
	acked []uint64
	seen  []uint64

	stop    atomic.Bool
	spansOn atomic.Bool

	mu         sync.Mutex
	firstErr   map[string]string // first error text per kind
	mismatches int
}

// client is one closed-loop caller. It owns the keys whose index is
// congruent to its id modulo the client count.
type client struct {
	id    int
	rng   *rand.Rand
	owned int      // how many keys it owns
	bufs  [][]byte // one value buffer per write statement, reused after commit
	picks []int

	// uncertain holds keys of write transactions that failed every attempt:
	// a commit that returned an error may still have become durable.
	uncertain map[int]bool

	samples []sample
	spans   []span

	attempted, failed, retries  uint64
	replicaReads, staleReads    uint64
	replicaErrs, ledgerFailures uint64
	lags                        []uint64
}

// sample is one completed transaction: when it ended and how long it took,
// first statement to commit return, retries included.
type sample struct {
	end time.Duration
	lat time.Duration
}

// span is one timed call into a layer, recorded by the driver around the
// call (spans inside the program are the program's own collector's).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"` // index in the same client's list, -1 for a root
	Txn    uint64        `json:"txn"`
	Client int           `json:"client"`
}

func keyOf(i int) []byte { return []byte(fmt.Sprintf("sbtest%010d", i)) }

// fillValue writes key i's value at the given version: 8 bytes of version,
// then filler that depends on the key, so a value filed under the wrong key
// is caught as well as a stale one.
func fillValue(buf []byte, i int, version uint64) {
	binary.BigEndian.PutUint64(buf, version)
	for j := 8; j < len(buf); j++ {
		buf[j] = byte(i*31 + j)
	}
}

// versionOf returns the version a value carries, or ok=false when the value
// is not one this benchmark wrote for key i.
func versionOf(val []byte, i int) (uint64, bool) {
	if len(val) != valueSize {
		return 0, false
	}
	for j := 8; j < len(val); j++ {
		if val[j] != byte(i*31+j) {
			return 0, false
		}
	}
	return binary.BigEndian.Uint64(val), true
}

// newRun generates a run's inputs from the seed; setUp attaches the system.
func newRun(s *spec, rows int, seed int64) *run {
	r := &run{spec: s, rows: rows, keys: make([][]byte, rows),
		acked: make([]uint64, rows), seen: make([]uint64, rows),
		firstErr: make(map[string]string)}
	for i := range r.keys {
		r.keys[i] = keyOf(i)
	}
	n := clientCount()
	for id := 0; id < n; id++ {
		c := &client{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
			owned: (rows - id + n - 1) / n, uncertain: make(map[int]bool),
			picks:   make([]int, s.replicaReads+s.reads+s.writes),
			samples: make([]sample, 0, 1<<18)}
		for w := 0; w < s.writes; w++ {
			c.bufs = append(c.bufs, make([]byte, valueSize))
		}
		r.clients = append(r.clients, c)
	}
	return r
}

// load writes every row at version 1, in key order, 100 rows per commit.
func (r *run) load() error {
	const batch = 100
	vals := make([][]byte, batch)
	for i := range vals {
		vals[i] = make([]byte, valueSize)
	}
	for start := 0; start < r.rows; start += batch {
		tx := r.sys.begin()
		for i := start; i < start+batch && i < r.rows; i++ {
			fillValue(vals[i-start], i, 1)
			if err := tx.Put(r.keys[i], vals[i-start]); err != nil {
				tx.Abort()
				return fmt.Errorf("load key %d: %w", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit at %d: %w", start, err)
		}
	}
	for i := range r.acked {
		r.acked[i] = 1
	}
	return nil
}

func (r *run) noteErr(kind string, err error) {
	r.mu.Lock()
	if _, ok := r.firstErr[kind]; !ok {
		r.firstErr[kind] = err.Error()
	}
	r.mu.Unlock()
}

// mismatch reports one ledger violation; every one is a failed operation.
func (r *run) mismatch(where string, i int, expected string, got []byte, found bool) {
	r.mu.Lock()
	r.mismatches++
	n := r.mismatches
	r.mu.Unlock()
	if n <= 10 {
		gotText := "missing"
		if found {
			if v, ok := versionOf(got, i); ok {
				gotText = fmt.Sprintf("version %d", v)
			} else {
				gotText = fmt.Sprintf("foreign value (%d bytes)", len(got))
			}
		}
		fmt.Fprintf(os.Stderr, "ledger mismatch (%s): key %s expected %s got %s\n",
			where, r.keys[i], expected, gotText)
	}
}

// start launches the clients; they run until r.stop is set.
func (r *run) start() *sync.WaitGroup {
	r.t0 = time.Now()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !r.stop.Load() {
				c.transaction(r)
			}
		}(c)
	}
	return &wg
}

// pick draws a key index uniformly among the client's own keys.
func (c *client) pick(r *run) int {
	return c.rng.Intn(c.owned)*len(r.clients) + c.id
}

// transaction draws one transaction's keys and runs it to success or to
// maxAttempts failures, SysBench-style: a failed statement or commit aborts
// the transaction and the whole of it is retried after a short pause.
func (c *client) transaction(r *run) {
	s := r.spec
	for i := range c.picks {
		c.picks[i] = c.pick(r)
	}
	// Two updates of one key in one transaction would carry the same
	// version; redraw until the written keys differ.
	w := c.picks[s.replicaReads+s.reads:]
	for i := 1; i < len(w); i++ {
		for j := 0; j < i; j++ {
			if w[i] == w[j] {
				w[i] = c.pick(r)
				j = -1
			}
		}
	}
	c.attempted++
	traced := r.spansOn.Load()
	root := int32(-1)
	start := time.Since(r.t0)
	if traced {
		root = c.open("txn", -1, start)
	}
	ok := false
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries++
			time.Sleep(retryPause)
		}
		kind, err := c.attempt(r, root)
		if err == nil {
			ok = true
			break
		}
		r.noteErr(kind, err)
	}
	end := time.Since(r.t0)
	if traced {
		c.spans[root].End = end
	}
	if !ok {
		c.failed++
		for _, i := range w {
			c.uncertain[i] = true
		}
		return
	}
	for _, i := range w {
		r.acked[i]++
		delete(c.uncertain, i)
	}
	c.samples = append(c.samples, sample{end: end, lat: end - start})
	if r.sys.replicaLag != nil {
		c.lags = append(c.lags, r.sys.replicaLag())
	}
}

// open starts a span and returns its index; the caller sets End.
func (c *client) open(name string, parent int32, at time.Duration) int32 {
	c.spans = append(c.spans, span{Name: name, Start: at, Parent: parent,
		Txn: c.attempted, Client: c.id})
	return int32(len(c.spans) - 1)
}

// timed runs one call into the system under a span when root >= 0.
func (c *client) timed(r *run, name string, root int32, call func()) {
	if root < 0 {
		call()
		return
	}
	i := c.open(name, root, time.Since(r.t0))
	call()
	c.spans[i].End = time.Since(r.t0)
}

// attempt runs the transaction once and checks every value read. It returns
// the kind of statement that failed with its error.
func (c *client) attempt(r *run, root int32) (string, error) {
	s := r.spec
	picks := c.picks
	for _, i := range picks[:s.replicaReads] {
		var val []byte
		var found bool
		var err error
		c.timed(r, "replica.get", root, func() { val, found, err = r.sys.replicaGet(r.keys[i]) })
		c.replicaReads++
		if err != nil {
			c.replicaErrs++
			return "replica_get", err
		}
		c.checkReplicaRead(r, i, val, found)
	}
	picks = picks[s.replicaReads:]

	var tx statements
	c.timed(r, "begin", root, func() { tx = r.sys.begin() })
	for _, i := range picks[:s.reads] {
		var val []byte
		var found bool
		var err error
		c.timed(r, "get", root, func() { val, found, err = tx.Get(r.keys[i]) })
		if err != nil {
			tx.Abort()
			return "get", err
		}
		c.checkWriterRead(r, "writer read", i, val, found)
	}
	for n, i := range picks[s.reads:] {
		fillValue(c.bufs[n], i, r.acked[i]+1)
		var err error
		c.timed(r, "put", root, func() { err = tx.Put(r.keys[i], c.bufs[n]) })
		if err != nil {
			tx.Abort()
			return "put", err
		}
	}
	var err error
	c.timed(r, "commit", root, func() { err = tx.Commit() })
	return "commit", err
}

// checkWriterRead requires exactly the last acked version: the reader owns
// the key and has no write of it in flight.
func (c *client) checkWriterRead(r *run, where string, i int, val []byte, found bool) {
	v, ok := versionOf(val, i)
	want := r.acked[i]
	if found && ok && (v == want || (c.uncertain[i] && v == want+1)) {
		return
	}
	c.ledgerFailures++
	r.mismatch(where, i, fmt.Sprintf("version %d", want), val, found)
}

// checkReplicaRead requires a replica read to return nothing from the
// future and nothing older than what the replica already showed.
func (c *client) checkReplicaRead(r *run, i int, val []byte, found bool) {
	v, ok := versionOf(val, i)
	hi := r.acked[i]
	if c.uncertain[i] {
		hi++
	}
	if !found || !ok || v > hi || v < r.seen[i] {
		c.ledgerFailures++
		r.mismatch("replica read", i, fmt.Sprintf("version in [%d,%d]", r.seen[i], hi), val, found)
		return
	}
	r.seen[i] = v
	if v < r.acked[i] {
		c.staleReads++
	}
}

// verifyAll reads every key back on the writer after the clients stopped
// and returns how many reads it made; mismatches land in the clients'
// failure counts.
func (r *run) verifyAll(where string) int {
	n := len(r.clients)
	for i := 0; i < r.rows; i++ {
		c := r.clients[i%n]
		tx := r.sys.begin()
		val, found, err := tx.Get(r.keys[i])
		tx.Abort()
		if err != nil {
			r.noteErr("verify_get", err)
			c.ledgerFailures++
			r.mismatch(where, i, fmt.Sprintf("version %d", r.acked[i]), nil, false)
			continue
		}
		c.checkWriterRead(r, where, i, val, found)
	}
	return r.rows
}
