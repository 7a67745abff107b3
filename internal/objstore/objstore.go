// Package objstore simulates the S3-style object store Aurora uses as the
// durability sink for continuous backup and point-in-time restore: storage
// nodes periodically stage their log and new pages to S3 (Figure 4 step 6),
// and the binlog of the mirrored-MySQL baseline is archived there too
// (Figure 2). Objects are immutable and versioned.
package objstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("objstore: object not found")
	ErrVersion  = errors.New("objstore: version not found")
)

// Version is one immutable revision of an object.
type Version struct {
	ID      int
	Data    []byte
	Written time.Time
}

// Store is an in-memory versioned object store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string][]Version
	puts    uint64
	gets    uint64
	bytes   uint64
	now     func() time.Time
}

// New returns an empty store.
func New() *Store {
	return &Store{objects: make(map[string][]Version), now: time.Now}
}

// SetClock overrides the timestamp source (tests).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// Put writes a new version of key and returns its version id (starting at
// 1 per key). The store takes ownership of data: the caller hands over a
// buffer of its own and must not touch it afterwards. Every caller encodes
// the object fresh for the call (a backup image or delta, a geometry
// manifest), so a copy here would be a second full copy of every backup pass.
// Reads still copy: what Get returns is the caller's.
func (s *Store) Put(key string, data []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.objects[key]
	v := Version{ID: len(vs) + 1, Data: data, Written: s.now()}
	s.objects[key] = append(vs, v)
	s.puts++
	s.bytes += uint64(len(data))
	return v.ID
}

// Get returns the latest version of key.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.objects[key]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.gets++
	return append([]byte(nil), vs[len(vs)-1].Data...), nil
}

// GetVersion returns a specific version of key.
func (s *Store) GetVersion(key string, version int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.objects[key]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if version < 1 || version > len(vs) {
		return nil, fmt.Errorf("%w: %s@%d", ErrVersion, key, version)
	}
	s.gets++
	return append([]byte(nil), vs[version-1].Data...), nil
}

// GetAsOf returns the newest version of key written at or before t —
// the primitive behind point-in-time restore.
func (s *Store) GetAsOf(key string, t time.Time) ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.objects[key]
	for i := len(vs) - 1; i >= 0; i-- {
		if !vs[i].Written.After(t) {
			s.gets++
			return append([]byte(nil), vs[i].Data...), vs[i].ID, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %s as of %v", ErrNotFound, key, t)
}

// List returns all keys with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Count returns the number of distinct keys in the store — O(1) under the
// lock, unlike List, which materializes and sorts every key. Stats polls
// use it so a cluster snapshot never allocates a full listing.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// Versions returns the number of versions stored for key.
func (s *Store) Versions(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects[key])
}

// Delete removes all versions of key. Idempotent.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
}

// Stats returns put/get counts and total bytes ever written.
func (s *Store) Stats() (puts, gets, bytes uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.puts, s.gets, s.bytes
}
