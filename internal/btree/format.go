package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"aurora/internal/page"
)

// Node types stored in the first payload byte.
const (
	nodeFree     = 0
	nodeLeaf     = 1
	nodeInternal = 2
	nodeMeta     = 3
)

// Payload layout (offsets within page payload):
//
//	[0]     node type
//	[1:3)   live entry count (u16)
//	[3:11)  leaf: next-leaf page id; internal: leftmost child page id (u64)
//	[11:13) used bytes in the entry area (u16)
//	[13:)   entry area
//
// Leaf entries are [klen u16][vlen u16][flags u8][key][value]; flag bit 0
// marks the entry dead (superseded or deleted). The replace rule: a value of
// the live entry's length is copied over it in place, so its redo is the
// value bytes that changed; any other replace marks the entry dead and
// appends a new one. Both keep redo deltas small; compaction rewrites the
// page when the area fills.
// Internal entries are kept sorted: [klen u16][key][child u64].
const (
	offType  = 0
	offCount = 1
	offLink  = 3
	offUsed  = 11
	entBase  = 13
)

// Size limits enforced at the API boundary.
const (
	MaxKey   = 256
	MaxValue = 1024
)

const entryDead = 1

// Errors surfaced by the tree.
var (
	ErrKeyTooLarge   = errors.New("btree: key exceeds MaxKey")
	ErrValueTooLarge = errors.New("btree: value exceeds MaxValue")
	ErrEmptyKey      = errors.New("btree: empty key")
	ErrCorrupt       = errors.New("btree: corrupt node")
	ErrNotBtreePage  = errors.New("btree: page is not a tree node")
)

type node struct {
	p page.Page
}

func (n node) typ() byte      { return n.p.Payload()[offType] }
func (n node) setTyp(t byte)  { n.p.Payload()[offType] = t }
func (n node) count() int     { return int(binary.LittleEndian.Uint16(n.p.Payload()[offCount:])) }
func (n node) setCount(c int) { binary.LittleEndian.PutUint16(n.p.Payload()[offCount:], uint16(c)) }
func (n node) link() uint64   { return binary.LittleEndian.Uint64(n.p.Payload()[offLink:]) }
func (n node) setLink(v uint64) {
	binary.LittleEndian.PutUint64(n.p.Payload()[offLink:], v)
}
func (n node) used() int     { return int(binary.LittleEndian.Uint16(n.p.Payload()[offUsed:])) }
func (n node) setUsed(u int) { binary.LittleEndian.PutUint16(n.p.Payload()[offUsed:], uint16(u)) }

func (n node) area() []byte { return n.p.Payload()[entBase:] }

// free reports the remaining bytes in the entry area.
func (n node) free() int { return len(n.area()) - n.used() }

// cursor is a position in the used part of a node's entry area: what the
// leaf and branch cursors below share. They decode entries one at a time, in
// place — the current entry aliases the page and next allocates nothing —
// and they are the only entry decoders. Every lookup drives its cursor to the
// end of the area, so a malformed entry anywhere in a node fails the
// operation.
type cursor struct {
	area []byte // the used part of the entry area
	pos  int    // where the next entry starts
	err  error  // why next stopped early, if it did
}

func (n node) cursor() cursor {
	area, used := n.area(), n.used()
	if used > len(area) {
		return cursor{err: fmt.Errorf("%w: %d bytes used of a %d-byte entry area", ErrCorrupt, used, len(area))}
	}
	return cursor{area: area[:used]}
}

// fail records a malformed entry at the cursor and ends the walk.
func (c *cursor) fail(what string) bool {
	c.err = fmt.Errorf("%w: %s at %d", ErrCorrupt, what, c.pos)
	c.pos = len(c.area)
	return false
}

// leafEntry is a decoded leaf slot.
type leafEntry struct {
	off  int // offset of the entry within the area (for in-place kill)
	dead bool
	key  []byte // aliases the page payload
	val  []byte // aliases the page payload
}

const leafHdr = 2 + 2 + 1

func leafEntrySize(k, v int) int { return leafHdr + k + v }

// leafCursor walks the entries of a leaf, live and dead.
type leafCursor struct {
	leafEntry // the current entry, valid after next returned true
	cursor
}

func (n node) leafEntries() leafCursor { return leafCursor{cursor: n.cursor()} }

// next advances to the next entry, returning false at the end of the used
// area or at a malformed entry (err is then set).
func (c *leafCursor) next() bool {
	area, off := c.area, c.pos
	if off >= len(area) {
		return false
	}
	if off+leafHdr > len(area) {
		return c.fail("leaf entry header")
	}
	klen := int(binary.LittleEndian.Uint16(area[off:]))
	vlen := int(binary.LittleEndian.Uint16(area[off+2:]))
	end := off + leafHdr + klen + vlen
	if end > len(area) {
		return c.fail("leaf entry body")
	}
	c.leafEntry = leafEntry{
		off:  off,
		dead: area[off+4]&entryDead != 0,
		key:  area[off+leafHdr : off+leafHdr+klen],
		val:  area[off+leafHdr+klen : end],
	}
	c.pos = end
	return true
}

// findLive returns the live entry for key, if any.
func (n node) findLive(key []byte) (leafEntry, bool, error) {
	var found leafEntry
	ok := false
	c := n.leafEntries()
	for c.next() {
		if !ok && !c.dead && bytes.Equal(c.key, key) {
			found, ok = c.leafEntry, true
		}
	}
	if c.err != nil {
		return leafEntry{}, false, c.err
	}
	return found, ok, nil
}

// kill marks the entry at off dead and decrements the live count.
func (n node) kill(off int) {
	n.area()[off+4] |= entryDead
	n.setCount(n.count() - 1)
}

// appendLeaf appends a live entry; the caller has verified space.
func (n node) appendLeaf(key, val []byte) {
	area := n.area()
	off := n.used()
	binary.LittleEndian.PutUint16(area[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(area[off+2:], uint16(len(val)))
	area[off+4] = 0
	copy(area[off+leafHdr:], key)
	copy(area[off+leafHdr+len(key):], val)
	n.setUsed(off + leafEntrySize(len(key), len(val)))
	n.setCount(n.count() + 1)
}

// liveSorted returns the live entries sorted by key. The leaf's used area is
// copied once and the entries alias the copy, capacity-limited, so the page
// can be rewritten underneath them and an append to one cannot reach the
// next.
func (n node) liveSorted() ([]kv, error) {
	c := n.leafEntries()
	c.area = bytes.Clone(c.area)
	out := make([]kv, 0, n.count())
	for c.next() {
		if !c.dead {
			out = append(out, kv{k: c.key[:len(c.key):len(c.key)], v: c.val[:len(c.val):len(c.val)]})
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	slices.SortFunc(out, func(a, b kv) int { return bytes.Compare(a.k, b.k) })
	return out, nil
}

type kv struct{ k, v []byte }

// liveBytes returns the space live entries occupy.
func (n node) liveBytes() (int, error) {
	total := 0
	c := n.leafEntries()
	for c.next() {
		if !c.dead {
			total += leafEntrySize(len(c.key), len(c.val))
		}
	}
	if c.err != nil {
		return 0, c.err
	}
	return total, nil
}

// rewriteLeaf replaces the leaf's entry area with the given live entries.
func (n node) rewriteLeaf(entries []kv) {
	area := n.area()
	for i := range area {
		area[i] = 0
	}
	n.setUsed(0)
	n.setCount(0)
	for _, e := range entries {
		n.appendLeaf(e.k, e.v)
	}
}

// initLeaf formats a page as an empty leaf.
func initLeaf(p page.Page, next uint64) node {
	n := node{p}
	pl := p.Payload()
	for i := range pl {
		pl[i] = 0
	}
	n.setTyp(nodeLeaf)
	n.setLink(next)
	return n
}

// Internal-node entries: sorted [klen u16][key][child u64].

type branch struct {
	key   []byte
	child uint64
}

const branchHdr = 2 + 8

func branchSize(k int) int { return branchHdr + k }

// branchCursor walks the sorted separators of an internal node.
type branchCursor struct {
	branch // the current separator, valid after next returned true; key aliases the page
	cursor
}

func (n node) branches() branchCursor { return branchCursor{cursor: n.cursor()} }

func (c *branchCursor) next() bool {
	area, off := c.area, c.pos
	if off >= len(area) {
		return false
	}
	if off+2 > len(area) {
		return c.fail("branch header")
	}
	klen := int(binary.LittleEndian.Uint16(area[off:]))
	end := off + 2 + klen + 8
	if end > len(area) {
		return c.fail("branch body")
	}
	c.branch = branch{
		key:   area[off+2 : off+2+klen],
		child: binary.LittleEndian.Uint64(area[off+2+klen : end]),
	}
	c.pos = end
	return true
}

// rewriteInternal replaces the separators of an internal node.
func (n node) rewriteInternal(leftmost uint64, brs []branch) {
	area := n.area()
	for i := range area {
		area[i] = 0
	}
	n.setLink(leftmost)
	off := 0
	for _, b := range brs {
		binary.LittleEndian.PutUint16(area[off:], uint16(len(b.key)))
		copy(area[off+2:], b.key)
		binary.LittleEndian.PutUint64(area[off+2+len(b.key):], b.child)
		off += branchSize(len(b.key))
	}
	n.setUsed(off)
	n.setCount(len(brs))
}

// childFor returns the child page to descend into for key.
func (n node) childFor(key []byte) (uint64, error) {
	child := n.link() // leftmost
	// Separators are sorted, so comparing stops at the first one above key;
	// decoding does not, or a torn tail of the node would go unnoticed.
	passed := false
	c := n.branches()
	for c.next() {
		if passed {
			continue
		}
		if bytes.Compare(key, c.key) >= 0 {
			child = c.child
		} else {
			passed = true
		}
	}
	if c.err != nil {
		return 0, c.err
	}
	return child, nil
}

// initInternal formats a page as an internal node.
func initInternal(p page.Page, leftmost uint64, brs []branch) node {
	n := node{p}
	pl := p.Payload()
	for i := range pl {
		pl[i] = 0
	}
	n.setTyp(nodeInternal)
	n.rewriteInternal(leftmost, brs)
	return n
}

// Meta page layout (type nodeMeta):
//
//	[1:5)   magic
//	[5:13)  root page id
//	[13:21) next free page id
//	[21:29) row count (approximate, maintained by Put/Delete)
const metaMagic = 0x42545245 // "BTRE"

type meta struct{ p page.Page }

func (m meta) magic() uint32 { return binary.LittleEndian.Uint32(m.p.Payload()[1:]) }
func (m meta) root() uint64  { return binary.LittleEndian.Uint64(m.p.Payload()[5:]) }
func (m meta) setRoot(r uint64) {
	binary.LittleEndian.PutUint64(m.p.Payload()[5:], r)
}
func (m meta) next() uint64 { return binary.LittleEndian.Uint64(m.p.Payload()[13:]) }
func (m meta) setNext(n uint64) {
	binary.LittleEndian.PutUint64(m.p.Payload()[13:], n)
}
func (m meta) rows() uint64 { return binary.LittleEndian.Uint64(m.p.Payload()[21:]) }
func (m meta) setRows(n uint64) {
	binary.LittleEndian.PutUint64(m.p.Payload()[21:], n)
}
