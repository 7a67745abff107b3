package btree

import (
	"bytes"
	"errors"
	"fmt"

	"aurora/internal/core"
	"aurora/internal/page"
)

// Store supplies page images to the tree. The engine implements it on top
// of the buffer cache and the storage volume.
type Store interface {
	// Page returns the current mutable image of an existing page.
	Page(id core.PageID) (page.Page, error)
	// FreshPage materializes a brand-new zeroed page image for id without
	// consulting storage (the page has never been written).
	FreshPage(id core.PageID) (page.Page, error)
}

// MetaPageID is the well-known page holding the tree metadata.
const MetaPageID core.PageID = 0

// Tree is a B+-tree rooted at the meta page. All mutating methods must be
// called under the caller's exclusive latch; readers under a shared latch.
type Tree struct {
	store Store
}

// Create formats a brand-new tree: a meta page and an empty root leaf.
// Mutations are captured by rec; the caller ships them as the first MTR.
func Create(store Store, rec *Recorder) (*Tree, error) {
	mp, err := store.FreshPage(MetaPageID)
	if err != nil {
		return nil, err
	}
	rec.Touch(MetaPageID, mp)
	rootID := MetaPageID + 1
	rp, err := store.FreshPage(rootID)
	if err != nil {
		return nil, err
	}
	rec.Touch(rootID, rp)
	initLeaf(rp, 0)

	pl := mp.Payload()
	pl[offType] = nodeMeta
	m := meta{mp}
	putU32(pl[1:], metaMagic)
	m.setRoot(uint64(rootID))
	m.setNext(uint64(rootID) + 1)
	m.setRows(0)
	return &Tree{store: store}, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// View binds a Tree to a store without validating the meta page. The
// engine uses it to run each operation against an operation-scoped store
// (cache-backed, snapshot-backed...) after validating once with Open.
func View(store Store) *Tree { return &Tree{store: store} }

// Open attaches to an existing tree, validating the meta page.
func Open(store Store) (*Tree, error) {
	mp, err := store.Page(MetaPageID)
	if err != nil {
		return nil, err
	}
	if mp.Payload()[offType] != nodeMeta || (meta{mp}).magic() != metaMagic {
		return nil, fmt.Errorf("%w: bad meta page", ErrNotBtreePage)
	}
	return &Tree{store: store}, nil
}

func (t *Tree) meta() (meta, error) {
	mp, err := t.store.Page(MetaPageID)
	if err != nil {
		return meta{}, err
	}
	return meta{mp}, nil
}

// Rows returns the approximate live row count.
func (t *Tree) Rows() (uint64, error) {
	m, err := t.meta()
	if err != nil {
		return 0, err
	}
	return m.rows(), nil
}

// allocPage reserves a fresh page id, recording the meta mutation.
func (t *Tree) allocPage(rec *Recorder) (core.PageID, page.Page, error) {
	m, err := t.meta()
	if err != nil {
		return 0, nil, err
	}
	rec.Touch(MetaPageID, m.p)
	id := core.PageID(m.next())
	m.setNext(uint64(id) + 1)
	p, err := t.store.FreshPage(id)
	if err != nil {
		return 0, nil, err
	}
	return id, p, nil
}

func checkKV(key, val []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKey {
		return ErrKeyTooLarge
	}
	if len(val) > MaxValue {
		return ErrValueTooLarge
	}
	return nil
}

// descend walks from the root to the leaf for key. A non-nil path comes back
// with the internal page ids passed on the way appended (root first); only
// Put needs them, to thread a split's separator back up, and it lends a stack
// buffer so that no descent grows a slice on the heap.
func (t *Tree) descend(key []byte, path []core.PageID) (_ []core.PageID, leafID core.PageID, leaf node, err error) {
	m, err := t.meta()
	if err != nil {
		return nil, 0, node{}, err
	}
	id := core.PageID(m.root())
	for {
		p, err := t.store.Page(id)
		if err != nil {
			return nil, 0, node{}, err
		}
		n := node{p}
		switch n.typ() {
		case nodeLeaf:
			return path, id, n, nil
		case nodeInternal:
			if path != nil {
				path = append(path, id)
			}
			child, err := n.childFor(key)
			if err != nil {
				return nil, 0, node{}, err
			}
			id = core.PageID(child)
		default:
			return nil, 0, node{}, fmt.Errorf("%w: page %d type %d", ErrCorrupt, id, n.typ())
		}
	}
}

// Get returns the value stored for key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	if err := checkKV(key, nil); err != nil {
		return nil, false, err
	}
	_, _, leaf, err := t.descend(key, nil)
	if err != nil {
		return nil, false, err
	}
	e, ok, err := leaf.findLive(key)
	if err != nil || !ok {
		return nil, false, err
	}
	return append([]byte(nil), e.val...), true, nil
}

// Put inserts or replaces a key. All page mutations are captured by rec.
func (t *Tree) Put(rec *Recorder, key, val []byte) error {
	if err := checkKV(key, val); err != nil {
		return err
	}
	// Trees deeper than the array spill to the heap; 8 levels of 4 KB nodes
	// is already more rows than a simulated volume holds.
	var levels [8]core.PageID
	path, leafID, leaf, err := t.descend(key, levels[:0])
	if err != nil {
		return err
	}
	rec.Touch(leafID, leaf.p)

	// Replace: kill the existing live entry first.
	existing, had, err := leaf.findLive(key)
	if err != nil {
		return err
	}
	if had {
		leaf.kill(existing.off)
	}

	need := leafEntrySize(len(key), len(val))
	if leaf.free() < need {
		// Try compaction before splitting.
		live, err := leaf.liveBytes()
		if err != nil {
			return err
		}
		if len(leaf.area())-live >= need {
			ents, err := leaf.liveSorted()
			if err != nil {
				return err
			}
			leaf.rewriteLeaf(ents)
		} else {
			if err := t.splitLeafAndInsert(rec, path, leafID, leaf, key, val); err != nil {
				return err
			}
			if !had {
				if err := t.bumpRows(rec, +1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	leaf.appendLeaf(key, val)
	if !had {
		if err := t.bumpRows(rec, +1); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) bumpRows(rec *Recorder, delta int64) error {
	m, err := t.meta()
	if err != nil {
		return err
	}
	rec.Touch(MetaPageID, m.p)
	m.setRows(uint64(int64(m.rows()) + delta))
	return nil
}

// splitLeafAndInsert splits a full leaf and inserts (key,val) into the
// correct half, then threads the separator up the path.
func (t *Tree) splitLeafAndInsert(rec *Recorder, path []core.PageID, leftID core.PageID, left node, key, val []byte) error {
	ents, err := left.liveSorted()
	if err != nil {
		return err
	}
	// Merge the new entry into the sorted set (replace already handled).
	ents = append(ents, kv{})
	pos := len(ents) - 1
	for pos > 0 && bytes.Compare(ents[pos-1].k, key) > 0 {
		ents[pos] = ents[pos-1]
		pos--
	}
	ents[pos] = kv{k: append([]byte(nil), key...), v: append([]byte(nil), val...)}

	// Split by bytes, not entry count: with mixed entry sizes a count-based
	// midpoint can hand one half more bytes than a page holds, and
	// rewriteLeaf would write out of bounds. The greedy cut keeps each half
	// within half the total plus one entry, which always fits: the total is
	// at most a full page plus the new entry, and one entry is bounded by
	// MaxKey+MaxValue.
	total := 0
	for _, e := range ents {
		total += leafEntrySize(len(e.k), len(e.v))
	}
	mid, acc := 0, 0
	for mid < len(ents)-1 {
		acc += leafEntrySize(len(ents[mid].k), len(ents[mid].v))
		mid++
		if acc*2 >= total {
			break
		}
	}
	if mid == 0 {
		mid = 1
	}
	rightID, rp, err := t.allocPage(rec)
	if err != nil {
		return err
	}
	rec.Touch(rightID, rp)
	right := initLeaf(rp, left.link())
	right.rewriteLeaf(ents[mid:])
	left.rewriteLeaf(ents[:mid])
	left.setLink(uint64(rightID))

	sep := append([]byte(nil), ents[mid].k...)
	return t.insertSeparator(rec, path, sep, uint64(rightID))
}

// insertSeparator threads a (separator, rightChild) pair into the lowest
// internal node of the path, splitting upward as needed.
func (t *Tree) insertSeparator(rec *Recorder, path []core.PageID, sep []byte, rightChild uint64) error {
	if len(path) == 0 {
		return t.growRoot(rec, sep, rightChild)
	}
	nodeID := path[len(path)-1]
	p, err := t.store.Page(nodeID)
	if err != nil {
		return err
	}
	rec.Touch(nodeID, p)
	n := node{p}
	// Copy keys out: rewrite below reuses the underlying area.
	cp := make([]branch, 0, n.count()+1)
	c := n.branches()
	for c.next() {
		cp = append(cp, branch{key: append([]byte(nil), c.key...), child: c.child})
	}
	if c.err != nil {
		return c.err
	}
	pos := len(cp)
	cp = append(cp, branch{})
	for pos > 0 && bytes.Compare(cp[pos-1].key, sep) > 0 {
		cp[pos] = cp[pos-1]
		pos--
	}
	cp[pos] = branch{key: sep, child: rightChild}

	// Fits?
	total := 0
	for _, b := range cp {
		total += branchSize(len(b.key))
	}
	if total <= len(n.area()) {
		n.rewriteInternal(n.link(), cp)
		return nil
	}

	// Split the internal node: a byte-balanced separator moves up (same
	// count-vs-bytes trap as the leaf split when key sizes are skewed).
	mid, acc := 0, 0
	for mid < len(cp)-1 {
		acc += branchSize(len(cp[mid].key))
		mid++
		if acc*2 >= total {
			break
		}
	}
	if mid == 0 {
		mid = 1
	}
	upKey := cp[mid].key
	rightID, rp, err := t.allocPage(rec)
	if err != nil {
		return err
	}
	rec.Touch(rightID, rp)
	initInternal(rp, cp[mid].child, cp[mid+1:])
	n.rewriteInternal(n.link(), cp[:mid])
	return t.insertSeparator(rec, path[:len(path)-1], upKey, uint64(rightID))
}

// growRoot replaces the root with a new internal node over the old root.
func (t *Tree) growRoot(rec *Recorder, sep []byte, rightChild uint64) error {
	m, err := t.meta()
	if err != nil {
		return err
	}
	rec.Touch(MetaPageID, m.p)
	newID, np, err := t.allocPage(rec)
	if err != nil {
		return err
	}
	rec.Touch(newID, np)
	initInternal(np, m.root(), []branch{{key: sep, child: rightChild}})
	m.setRoot(uint64(newID))
	return nil
}

// Delete removes a key, reporting whether it existed. Pages are never
// merged; sparse leaves are reclaimed by compaction on later inserts (a
// deliberate simplification documented in DESIGN.md).
func (t *Tree) Delete(rec *Recorder, key []byte) (bool, error) {
	if err := checkKV(key, nil); err != nil {
		return false, err
	}
	_, leafID, leaf, err := t.descend(key, nil)
	if err != nil {
		return false, err
	}
	e, ok, err := leaf.findLive(key)
	if err != nil || !ok {
		return false, err
	}
	rec.Touch(leafID, leaf.p)
	leaf.kill(e.off)
	if err := t.bumpRows(rec, -1); err != nil {
		return false, err
	}
	return true, nil
}

// Scan visits live entries with from <= key < to in order (to == nil means
// unbounded). fn returning false stops the scan.
func (t *Tree) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	if from == nil {
		from = []byte{0}
	}
	_, _, leaf, err := t.descend(from, nil)
	if err != nil {
		return err
	}
	for {
		ents, err := leaf.liveSorted()
		if err != nil {
			return err
		}
		for _, e := range ents {
			if bytes.Compare(e.k, from) < 0 {
				continue
			}
			if to != nil && bytes.Compare(e.k, to) >= 0 {
				return nil
			}
			if !fn(e.k, e.v) {
				return nil
			}
		}
		next := leaf.link()
		if next == 0 {
			return nil
		}
		p, err := t.store.Page(core.PageID(next))
		if err != nil {
			return err
		}
		leaf = node{p}
		if leaf.typ() != nodeLeaf {
			return fmt.Errorf("%w: leaf chain reached page %d type %d", ErrCorrupt, next, leaf.typ())
		}
	}
}

// CheckInvariants walks the whole tree verifying structure: every leaf
// reachable, keys in order, separators consistent, and the leaf chain
// matching the in-order traversal. Intended for tests and the scrub tool.
func (t *Tree) CheckInvariants() error {
	m, err := t.meta()
	if err != nil {
		return err
	}
	var leaves []core.PageID
	var walk func(id core.PageID, lo, hi []byte) error
	walk = func(id core.PageID, lo, hi []byte) error {
		p, err := t.store.Page(id)
		if err != nil {
			return err
		}
		n := node{p}
		switch n.typ() {
		case nodeLeaf:
			ents, err := n.liveSorted()
			if err != nil {
				return err
			}
			for _, e := range ents {
				if lo != nil && bytes.Compare(e.k, lo) < 0 {
					return fmt.Errorf("%w: leaf %d key below bound", ErrCorrupt, id)
				}
				if hi != nil && bytes.Compare(e.k, hi) >= 0 {
					return fmt.Errorf("%w: leaf %d key above bound", ErrCorrupt, id)
				}
			}
			leaves = append(leaves, id)
			return nil
		case nodeInternal:
			prev := lo
			child := n.link()
			c := n.branches()
			for c.next() {
				if prev != nil && bytes.Compare(c.key, prev) < 0 {
					return fmt.Errorf("%w: internal %d separators unsorted", ErrCorrupt, id)
				}
				if err := walk(core.PageID(child), prev, c.key); err != nil {
					return err
				}
				prev = c.key
				child = c.child
			}
			if c.err != nil {
				return c.err
			}
			return walk(core.PageID(child), prev, hi)
		default:
			return fmt.Errorf("%w: page %d type %d in tree", ErrCorrupt, id, n.typ())
		}
	}
	if err := walk(core.PageID(m.root()), nil, nil); err != nil {
		return err
	}
	// The leaf sibling chain must enumerate exactly the reachable leaves.
	if len(leaves) > 0 {
		id := leaves[0]
		for i := 0; ; i++ {
			if i >= len(leaves) {
				return errors.New("btree: leaf chain longer than reachable leaves")
			}
			if leaves[i] != id {
				return fmt.Errorf("%w: leaf chain order mismatch at %d", ErrCorrupt, id)
			}
			p, err := t.store.Page(id)
			if err != nil {
				return err
			}
			next := (node{p}).link()
			if next == 0 {
				if i != len(leaves)-1 {
					return errors.New("btree: leaf chain ends early")
				}
				break
			}
			id = core.PageID(next)
		}
	}
	return nil
}
