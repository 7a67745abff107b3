package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"aurora/internal/core"
)

func TestDiffBasic(t *testing.T) {
	before := []byte("aaaaaaaaaa")
	after := []byte("aaXXaaaaYa")
	spans := Diff(before, after, 1)
	if len(spans) != 2 {
		t.Fatalf("spans %v", spans)
	}
	if spans[0].Offset != 2 || string(spans[0].Data) != "XX" {
		t.Fatalf("span0 %+v", spans[0])
	}
	if spans[1].Offset != 8 || string(spans[1].Data) != "Y" {
		t.Fatalf("span1 %+v", spans[1])
	}
}

func TestDiffIdentical(t *testing.T) {
	b := []byte("same")
	if spans := Diff(b, b, 4); spans != nil {
		t.Fatalf("identical payloads diffed: %v", spans)
	}
}

func TestDiffGapMerging(t *testing.T) {
	before := make([]byte, 32)
	after := make([]byte, 32)
	after[0], after[3], after[6] = 1, 1, 1
	// With a large gap the three edits merge into one span covering 0..6.
	spans := Diff(before, after, 8)
	if len(spans) != 1 || spans[0].Offset != 0 || len(spans[0].Data) != 7 {
		t.Fatalf("merged spans %v", spans)
	}
	// With gap 1 they stay separate.
	spans = Diff(before, after, 1)
	if len(spans) != 3 {
		t.Fatalf("unmerged spans %v", spans)
	}
}

func TestDiffDataIsCopied(t *testing.T) {
	before := []byte{0, 0}
	after := []byte{1, 0}
	spans := Diff(before, after, 1)
	after[0] = 9
	if spans[0].Data[0] != 1 {
		t.Fatal("span aliases after buffer")
	}
}

// Property: applying the diff spans to before always reproduces after.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, edits, gap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		before := make([]byte, 256)
		rng.Read(before)
		after := append([]byte(nil), before...)
		for e := 0; e < int(edits%12); e++ {
			off := rng.Intn(len(after))
			after[off] = byte(rng.Intn(256))
		}
		spans := Diff(before, after, int(gap%9)+1)
		got := append([]byte(nil), before...)
		for _, s := range spans {
			copy(got[s.Offset:], s.Data)
		}
		return bytes.Equal(got, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: replaying DiffRecords through the log applicator reproduces
// the after-image — the end-to-end engine->storage contract.
func TestDiffRecordsApplyProperty(t *testing.T) {
	f := func(seed int64, edits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(3)
		rng.Read(p.Payload())
		before := append([]byte(nil), p.Payload()...)
		after := append([]byte(nil), before...)
		for e := 0; e < int(edits%10)+1; e++ {
			off := rng.Intn(PayloadSize)
			after[off] ^= 0xFF
		}
		recs, err := DiffRecords(1, 3, 7, before, after, 16)
		if err != nil {
			return false
		}
		for i := range recs {
			recs[i].LSN = core.LSN(i + 100)
			if err := p.Apply(&recs[i]); err != nil {
				return false
			}
		}
		return bytes.Equal(p.Payload(), after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// diffOracle is Diff as it was first written, one byte per iteration: the
// reference the word-wise Diff is held to.
func diffOracle(before, after []byte, gap int) []Span {
	if gap < 1 {
		gap = 1
	}
	n := len(before)
	if len(after) < n {
		n = len(after)
	}
	var spans []Span
	i := 0
	for i < n {
		if before[i] == after[i] {
			i++
			continue
		}
		start := i
		last := i
		for j := i + 1; j < n && j-last <= gap; j++ {
			if before[j] != after[j] {
				last = j
			}
		}
		spans = append(spans, Span{Offset: start, Data: append([]byte(nil), after[start:last+1]...)})
		i = last + 1
	}
	if len(after) > len(before) {
		spans = append(spans, Span{Offset: len(before), Data: append([]byte(nil), after[len(before):]...)})
	}
	return spans
}

// diffCase generates one before/after pair from a seed: a payload of size
// bytes with up to edits random edits, each followed — so that span merging
// is decided at the boundary, not well inside it — by a second edit exactly
// gap or gap+1 bytes further on, plus edits in the last seven bytes, where
// the word-wise comparison hands over to the byte-wise one.
func diffCase(seed int64, size uint16, edits, gap uint8) (before, after []byte, g int) {
	rng := rand.New(rand.NewSource(seed))
	n := int(size)%PayloadSize + 1
	g = int(gap) % 40 // 0 exercises the gap < 1 clamp
	before = make([]byte, n)
	rng.Read(before)
	after = append([]byte(nil), before...)
	for e := 0; e < int(edits)%16; e++ {
		off := rng.Intn(n)
		after[off] ^= byte(1 + rng.Intn(255))
		if near := off + g + rng.Intn(2); rng.Intn(2) == 0 && near < n {
			after[near] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(4) == 0 {
			after[n-1-rng.Intn(min(7, n))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(4) == 0 { // a run of changed bytes, as a rewritten value is
			for k := off; k < min(n, off+rng.Intn(120)); k++ {
				after[k] = byte(rng.Intn(256))
			}
		}
	}
	return before, after, g
}

func checkDiffAgainstOracle(t *testing.T, seed int64, size uint16, edits, gap uint8) {
	t.Helper()
	before, after, g := diffCase(seed, size, edits, gap)
	got, want := Diff(before, after, g), diffOracle(before, after, g)
	if len(got) != len(want) {
		t.Fatalf("seed %d size %d edits %d gap %d: %d spans, oracle has %d", seed, size, edits, gap, len(got), len(want))
	}
	for i := range got {
		if got[i].Offset != want[i].Offset || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("seed %d size %d edits %d gap %d: span %d is [%d,+%d), oracle has [%d,+%d)", seed, size, edits, gap,
				i, got[i].Offset, len(got[i].Data), want[i].Offset, len(want[i].Data))
		}
	}
	// DiffRecords shares the span finder but not the copy: same boundaries,
	// and Data that does not alias after.
	recs, err := DiffRecords(1, 3, 7, before, after, g)
	if err != nil || len(recs) != len(want) {
		t.Fatalf("seed %d: DiffRecords gave %d records, %v; oracle has %d spans", seed, len(recs), err, len(want))
	}
	for i := range after {
		after[i] = ^after[i]
	}
	for i, r := range recs {
		if int(r.Offset) != want[i].Offset || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("seed %d: record %d at %d differs from the oracle's span at %d, or aliases after", seed, i, r.Offset, want[i].Offset)
		}
	}
}

// TestDiffMatchesByteWiseOracle: the word-wise Diff gives the byte-wise one's
// spans exactly — same boundaries, same merging, same bytes — over random
// edits on payloads of every alignment.
func TestDiffMatchesByteWiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		size := uint16(rng.Intn(1 << 16))
		if i%3 == 0 {
			size = PayloadSize - 1 // diffCase adds one: the full payload, as the engine diffs it
		}
		checkDiffAgainstOracle(t, rng.Int63(), size, uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
}

// FuzzDiff hands the same generator to the fuzzer; the seed corpus runs under
// go test.
func FuzzDiff(f *testing.F) {
	f.Add(int64(1), uint16(PayloadSize-1), uint8(3), uint8(24))
	f.Add(int64(2), uint16(0), uint8(1), uint8(0))
	f.Add(int64(3), uint16(6), uint8(15), uint8(1))
	f.Add(int64(4), uint16(8), uint8(15), uint8(7))
	f.Add(int64(5), uint16(9), uint8(15), uint8(8))
	f.Add(int64(6), uint16(255), uint8(12), uint8(39))
	f.Fuzz(checkDiffAgainstOracle)
}
