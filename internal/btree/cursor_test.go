package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aurora/internal/page"
)

// The slice-returning node decoders the tree used before the in-place cursors
// (format.go) replaced them. They stay here, and only here, as the reference
// the cursors are checked against: same entries, same error-or-not verdict.
// The one addition is the used-vs-area guard, which the originals lacked
// (they indexed out of range) and the cursors have.

func (n node) scanLeaf() ([]leafEntry, error) {
	area := n.area()
	used := n.used()
	if used > len(area) {
		return nil, fmt.Errorf("%w: used %d", ErrCorrupt, used)
	}
	var out []leafEntry
	off := 0
	for off < used {
		if off+leafHdr > used {
			return nil, fmt.Errorf("%w: leaf entry header at %d", ErrCorrupt, off)
		}
		klen := int(binary.LittleEndian.Uint16(area[off:]))
		vlen := int(binary.LittleEndian.Uint16(area[off+2:]))
		flags := area[off+4]
		end := off + leafHdr + klen + vlen
		if end > used {
			return nil, fmt.Errorf("%w: leaf entry body at %d", ErrCorrupt, off)
		}
		out = append(out, leafEntry{
			off:  off,
			dead: flags&entryDead != 0,
			key:  area[off+leafHdr : off+leafHdr+klen],
			val:  area[off+leafHdr+klen : end],
		})
		off = end
	}
	return out, nil
}

func (n node) scanInternal() ([]branch, error) {
	area := n.area()
	used := n.used()
	if used > len(area) {
		return nil, fmt.Errorf("%w: used %d", ErrCorrupt, used)
	}
	var out []branch
	off := 0
	for off < used {
		if off+2 > used {
			return nil, fmt.Errorf("%w: branch header at %d", ErrCorrupt, off)
		}
		klen := int(binary.LittleEndian.Uint16(area[off:]))
		end := off + 2 + klen + 8
		if end > used {
			return nil, fmt.Errorf("%w: branch body at %d", ErrCorrupt, off)
		}
		out = append(out, branch{
			key:   area[off+2 : off+2+klen],
			child: binary.LittleEndian.Uint64(area[off+2+klen : end]),
		})
		off = end
	}
	return out, nil
}

func oracleFindLive(n node, key []byte) (leafEntry, bool, error) {
	ents, err := n.scanLeaf()
	if err != nil {
		return leafEntry{}, false, err
	}
	for _, e := range ents {
		if !e.dead && bytes.Equal(e.key, key) {
			return e, true, nil
		}
	}
	return leafEntry{}, false, nil
}

func oracleLiveBytes(n node) (int, error) {
	ents, err := n.scanLeaf()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range ents {
		if !e.dead {
			total += leafEntrySize(len(e.key), len(e.val))
		}
	}
	return total, nil
}

func oracleChildFor(n node, key []byte) (uint64, error) {
	brs, err := n.scanInternal()
	if err != nil {
		return 0, err
	}
	child := n.link()
	for _, b := range brs {
		if bytes.Compare(key, b.key) >= 0 {
			child = b.child
		} else {
			break
		}
	}
	return child, nil
}

// genLeaf builds a well-formed leaf of random fill with a random share of
// dead entries, returning it with the keys it holds.
func genLeaf(rng *rand.Rand) (node, [][]byte) {
	n := initLeaf(page.New(1), rng.Uint64())
	var keys [][]byte
	for want := rng.Intn(80); want > 0; want-- {
		key := make([]byte, 1+rng.Intn(40))
		rng.Read(key)
		val := make([]byte, rng.Intn(200))
		rng.Read(val)
		if n.free() < leafEntrySize(len(key), len(val)) {
			break
		}
		off := n.used()
		n.appendLeaf(key, val)
		keys = append(keys, key)
		if rng.Intn(4) == 0 {
			n.kill(off)
		}
	}
	return n, keys
}

// genBranch builds a well-formed internal node with sorted random separators.
func genBranch(rng *rand.Rand) (node, [][]byte) {
	var brs []branch
	var keys [][]byte
	total := 0
	for i, want := 0, rng.Intn(120); i < want; i++ {
		key := []byte(fmt.Sprintf("%04d", i))
		key = append(key, make([]byte, rng.Intn(30))...)
		rng.Read(key[4:])
		if total += branchSize(len(key)); total > page.PayloadSize-entBase {
			break
		}
		brs = append(brs, branch{key: key, child: rng.Uint64()})
		keys = append(keys, key)
	}
	return initInternal(page.New(1), rng.Uint64(), brs), keys
}

// Corruptions a torn or scribbled node shows: each is applied to the bytes of
// a well-formed node at the entry that starts at or after area offset `at`.
const (
	hurtNothing = iota
	hurtTruncateUsed
	hurtOverflowUsed
	hurtInflateKlen
	hurtInflateVlen // leaves only; on a branch it lands in the key bytes
	hurtFlipDead    // leaves only: not an error, a different answer
	hurtKinds
)

func hurt(n node, leaf bool, kind, at, by int) {
	used := n.used()
	if used == 0 {
		return
	}
	// Find the first entry boundary at or after `at` (wrapping to the first).
	off, start := 0, 0
	for off < used {
		if off >= at%used {
			start = off
			break
		}
		klen := int(binary.LittleEndian.Uint16(n.area()[off:]))
		if leaf {
			off += leafEntrySize(klen, int(binary.LittleEndian.Uint16(n.area()[off+2:])))
		} else {
			off += branchSize(klen)
		}
	}
	area := n.area()
	switch kind {
	case hurtTruncateUsed:
		n.setUsed(used - 1 - by%used)
	case hurtOverflowUsed:
		n.setUsed(len(area) + 1 + by%1000)
	case hurtInflateKlen:
		binary.LittleEndian.PutUint16(area[start:], binary.LittleEndian.Uint16(area[start:])+uint16(1+by))
	case hurtInflateVlen:
		binary.LittleEndian.PutUint16(area[start+2:], binary.LittleEndian.Uint16(area[start+2:])+uint16(1+by))
	case hurtFlipDead:
		area[start+4] ^= entryDead
	}
}

// checkLeaf drives the leaf cursor and everything built on it against the
// reference decoders over one node image.
func checkLeaf(t *testing.T, n node, probe []byte) {
	t.Helper()
	want, werr := n.scanLeaf()
	var got []leafEntry
	c := n.leafEntries()
	for c.next() {
		got = append(got, c.leafEntry)
	}
	if c.next() {
		t.Fatal("cursor restarted after reporting the end")
	}
	if (werr == nil) != (c.err == nil) {
		t.Fatalf("verdicts differ: reference %v, cursor %v", werr, c.err)
	}
	if c.err != nil && !errors.Is(c.err, ErrCorrupt) {
		t.Fatalf("cursor error %v is not ErrCorrupt", c.err)
	}
	if werr == nil {
		if len(got) != len(want) {
			t.Fatalf("cursor decoded %d entries, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i].off != want[i].off || got[i].dead != want[i].dead ||
				!bytes.Equal(got[i].key, want[i].key) || !bytes.Equal(got[i].val, want[i].val) {
				t.Fatalf("entry %d: cursor %+v, reference %+v", i, got[i], want[i])
			}
		}
	}

	we, wok, werr := oracleFindLive(n, probe)
	ge, gok, gerr := n.findLive(probe)
	if (werr == nil) != (gerr == nil) || wok != gok || we.off != ge.off || !bytes.Equal(we.val, ge.val) {
		t.Fatalf("findLive(%x): got (%+v, %v, %v), reference (%+v, %v, %v)", probe, ge, gok, gerr, we, wok, werr)
	}
	wb, werr := oracleLiveBytes(n)
	gb, gerr := n.liveBytes()
	if (werr == nil) != (gerr == nil) || wb != gb {
		t.Fatalf("liveBytes: got (%d, %v), reference (%d, %v)", gb, gerr, wb, werr)
	}
	live, gerr := n.liveSorted()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("liveSorted verdict %v, reference %v", gerr, werr)
	}
	nlive := 0
	for _, e := range want {
		if !e.dead {
			nlive++
		}
	}
	if gerr == nil && len(live) != nlive {
		t.Fatalf("liveSorted returned %d entries, reference has %d live", len(live), nlive)
	}
}

func checkBranch(t *testing.T, n node, probe []byte) {
	t.Helper()
	want, werr := n.scanInternal()
	var got []branch
	c := n.branches()
	for c.next() {
		got = append(got, c.branch)
	}
	if c.next() {
		t.Fatal("cursor restarted after reporting the end")
	}
	if (werr == nil) != (c.err == nil) {
		t.Fatalf("verdicts differ: reference %v, cursor %v", werr, c.err)
	}
	if c.err != nil && !errors.Is(c.err, ErrCorrupt) {
		t.Fatalf("cursor error %v is not ErrCorrupt", c.err)
	}
	if werr == nil {
		if len(got) != len(want) {
			t.Fatalf("cursor decoded %d separators, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i].child != want[i].child || !bytes.Equal(got[i].key, want[i].key) {
				t.Fatalf("separator %d: cursor %+v, reference %+v", i, got[i], want[i])
			}
		}
	}
	wc, werr := oracleChildFor(n, probe)
	gc, gerr := n.childFor(probe)
	if (werr == nil) != (gerr == nil) || wc != gc {
		t.Fatalf("childFor(%x): got (%d, %v), reference (%d, %v)", probe, gc, gerr, wc, werr)
	}
}

// probeKeys returns lookups worth making on a node: its first and last key
// and one in between, a key below them all, one above, and a random one.
func probeKeys(rng *rand.Rand, keys [][]byte) [][]byte {
	probes := [][]byte{{0}, bytes.Repeat([]byte{0xFF}, 8)}
	if n := len(keys); n > 0 {
		probes = append(probes, keys[0], keys[rng.Intn(n)], keys[n-1])
	}
	miss := make([]byte, 1+rng.Intn(12))
	rng.Read(miss)
	return append(probes, miss)
}

// TestCursorsMatchReferenceDecoders is the differential test behind the
// replacement: over random well-formed nodes and over the same nodes torn in
// each of the ways above, the cursors decode what the old slice decoders
// decoded and fail exactly where they failed.
func TestCursorsMatchReferenceDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 100; round++ {
		for kind := 0; kind < hurtKinds; kind++ {
			at, by := rng.Intn(page.PayloadSize), rng.Intn(4000)
			leaf, lkeys := genLeaf(rng)
			hurt(leaf, true, kind, at, by)
			for _, k := range probeKeys(rng, lkeys) {
				checkLeaf(t, leaf, k)
			}
			br, bkeys := genBranch(rng)
			hurt(br, false, kind, at, by)
			for _, k := range probeKeys(rng, bkeys) {
				checkBranch(t, br, k)
			}
		}
	}
}

// nodeFromBytes wraps fuzz input as a node: the bytes become the payload
// (header included, so the fuzzer owns `used`), cut or zero-padded to size.
func nodeFromBytes(payload []byte) node {
	p := page.New(1)
	copy(p.Payload(), payload)
	return node{p}
}

// fuzzSeeds adds one node per corruption kind from the test's generator, so
// plain `go test` already runs the targets over every torn shape.
func fuzzSeeds(f *testing.F, leaf bool) {
	rng := rand.New(rand.NewSource(7))
	for kind := 0; kind < hurtKinds; kind++ {
		for i := 0; i < 4; i++ {
			var n node
			var keys [][]byte
			if leaf {
				n, keys = genLeaf(rng)
			} else {
				n, keys = genBranch(rng)
			}
			hurt(n, leaf, kind, rng.Intn(page.PayloadSize), rng.Intn(4000))
			probe := []byte{0x80}
			if len(keys) > 0 {
				probe = keys[rng.Intn(len(keys))]
			}
			f.Add([]byte(n.p.Payload()), probe)
		}
	}
}

func FuzzLeafCursor(f *testing.F) {
	fuzzSeeds(f, true)
	f.Fuzz(func(t *testing.T, payload, probe []byte) {
		checkLeaf(t, nodeFromBytes(payload), probe)
	})
}

func FuzzBranchCursor(f *testing.F) {
	fuzzSeeds(f, false)
	f.Fuzz(func(t *testing.T, payload, probe []byte) {
		checkBranch(t, nodeFromBytes(payload), probe)
	})
}
