package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"aurora/internal/core"
)

func deltaRec(lsn core.LSN, id core.PageID, off uint32, data []byte) *core.Record {
	return &core.Record{LSN: lsn, Type: core.RecPageDelta, Page: id, Offset: off, Data: data}
}

func TestApplyDelta(t *testing.T) {
	p := New(7)
	if err := p.Apply(deltaRec(5, 7, 10, []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if p.LSN() != 5 {
		t.Fatalf("page LSN %d, want 5", p.LSN())
	}
	if !bytes.Equal(p.Payload()[10:15], []byte("hello")) {
		t.Fatal("delta not applied")
	}
}

func TestApplyInitClearsTail(t *testing.T) {
	p := New(1)
	if err := p.Apply(deltaRec(1, 1, PayloadSize-3, []byte{9, 9, 9})); err != nil {
		t.Fatal(err)
	}
	init := &core.Record{LSN: 2, Type: core.RecPageInit, Page: 1, Data: []byte("fresh")}
	if err := p.Apply(init); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Payload()[:5], []byte("fresh")) {
		t.Fatal("init image not applied")
	}
	for i := 5; i < PayloadSize; i++ {
		if p.Payload()[i] != 0 {
			t.Fatalf("byte %d not cleared by init", i)
		}
	}
}

func TestApplyRejections(t *testing.T) {
	p := New(3)
	if err := p.Apply(deltaRec(1, 4, 0, []byte("x"))); err == nil {
		t.Fatal("wrong page accepted")
	}
	if err := p.Apply(deltaRec(2, 3, PayloadSize-1, []byte("xy"))); err == nil {
		t.Fatal("out-of-bounds delta accepted")
	}
	if err := p.Apply(deltaRec(3, 3, 0, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(deltaRec(3, 3, 0, []byte("y"))); err == nil {
		t.Fatal("stale record accepted")
	}
	meta := &core.Record{LSN: 9, Type: core.RecTxnCommit, Page: 3}
	if err := p.Apply(meta); err == nil {
		t.Fatal("metadata record applied to page")
	}
	short := Page(make([]byte, 10))
	if err := short.Apply(deltaRec(1, 0, 0, []byte("x"))); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	p := New(11)
	copy(p.Payload(), []byte("content"))
	p.SetLSN(44)
	p.UpdateChecksum()
	if err := p.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	p.Payload()[0] ^= 1
	if err := p.VerifyChecksum(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestMaterializeFromNilBase(t *testing.T) {
	chain := []*core.Record{
		{LSN: 1, Type: core.RecPageInit, Page: 5, Data: []byte("base")},
		deltaRec(3, 5, 0, []byte("B")),
		deltaRec(7, 5, 2, []byte("XY")),
	}
	p, err := Materialize(5, nil, chain, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "BaXY" {
		t.Fatalf("payload %q, want BaXY", got)
	}
	if p.LSN() != 7 {
		t.Fatalf("LSN %d, want 7", p.LSN())
	}
}

func TestMaterializeReadPointCutsChain(t *testing.T) {
	chain := []*core.Record{
		{LSN: 1, Type: core.RecPageInit, Page: 5, Data: []byte("base")},
		deltaRec(3, 5, 0, []byte("B")),
		deltaRec(7, 5, 2, []byte("XY")),
	}
	p, err := Materialize(5, nil, chain, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:4]); got != "Base" {
		t.Fatalf("payload %q, want Base (read point 5 excludes LSN 7)", got)
	}
	if p.LSN() != 3 {
		t.Fatalf("LSN %d, want 3", p.LSN())
	}
}

func TestMaterializeSkipsRecordsInBase(t *testing.T) {
	base := New(9)
	if err := base.Apply(deltaRec(4, 9, 0, []byte("old"))); err != nil {
		t.Fatal(err)
	}
	chain := []*core.Record{
		deltaRec(2, 9, 0, []byte("zzz")), // already reflected: LSN 2 <= 4
		deltaRec(6, 9, 3, []byte("new")),
	}
	p, err := Materialize(9, base, chain, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Payload()[:6]); got != "oldnew" {
		t.Fatalf("payload %q, want oldnew", got)
	}
	// Base must be untouched.
	if base.LSN() != 4 {
		t.Fatal("Materialize mutated base")
	}
}

// Property: materializing a random delta chain equals applying the same
// writes to a plain byte array (model-based check of the log applicator).
func TestMaterializeMatchesModel(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall%40) + 1
		rng := rand.New(rand.NewSource(seed))
		model := make([]byte, PayloadSize)
		var chain []*core.Record
		for i := 0; i < n; i++ {
			off := rng.Intn(PayloadSize)
			l := rng.Intn(64) + 1
			if off+l > PayloadSize {
				l = PayloadSize - off
			}
			data := make([]byte, l)
			rng.Read(data)
			copy(model[off:], data)
			chain = append(chain, deltaRec(core.LSN(i+1), 1, uint32(off), data))
		}
		p, err := Materialize(1, nil, chain, core.LSN(n))
		if err != nil {
			return false
		}
		return bytes.Equal(p.Payload(), model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: materializing in two steps (base at k, then the rest) matches
// materializing the full chain — the "pages are a cache of log applications"
// claim from §3.2.
func TestMaterializeComposes(t *testing.T) {
	f := func(seed int64, nSmall, kSmall uint8) bool {
		n := int(nSmall%30) + 2
		k := int(kSmall) % n
		rng := rand.New(rand.NewSource(seed))
		var chain []*core.Record
		for i := 0; i < n; i++ {
			off := rng.Intn(PayloadSize - 8)
			data := make([]byte, 8)
			rng.Read(data)
			chain = append(chain, deltaRec(core.LSN(i+1), 2, uint32(off), data))
		}
		full, err := Materialize(2, nil, chain, core.LSN(n))
		if err != nil {
			return false
		}
		mid, err := Materialize(2, nil, chain, core.LSN(k))
		if err != nil {
			return false
		}
		two, err := Materialize(2, mid, chain, core.LSN(n))
		if err != nil {
			return false
		}
		return bytes.Equal(full, two)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaRecordBounds(t *testing.T) {
	delta := func(offset int, data []byte) (core.Record, error) {
		recs, _, err := AppendDeltas(nil, make([]byte, len(data)), 2, 3, 4, []Span{{Offset: offset, Data: data}})
		if err != nil {
			return core.Record{}, err
		}
		return recs[0], nil
	}
	if _, err := delta(-1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := delta(PayloadSize, []byte("x")); err == nil {
		t.Fatal("offset past payload accepted")
	}
	if _, _, err := AppendDeltas(nil, make([]byte, 1), 2, 3, 4, []Span{{Offset: 0, Data: []byte("ok")}}); err == nil {
		t.Fatal("a buffer too short for the spans accepted")
	}
	r, err := delta(8, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != core.RecPageDelta || r.PG != 2 || r.Page != 3 || r.Txn != 4 || r.Offset != 8 {
		t.Fatalf("fields wrong: %+v", r)
	}
	// Data must be copied, not aliased, and capacity-limited to its own bytes.
	src := []byte("abc")
	r2, _ := delta(0, src)
	src[0] = 'z'
	if r2.Data[0] != 'a' {
		t.Fatal("AppendDeltas aliased caller data")
	}
	recs, rest, err := AppendDeltas(nil, make([]byte, 8), 0, 1, 1, []Span{{Offset: 0, Data: []byte("ab")}, {Offset: 9, Data: []byte("cd")}})
	if err != nil || len(rest) != 4 || cap(recs[0].Data) != 2 {
		t.Fatalf("two spans in one buffer: %v, %d bytes left, first record's capacity %d", err, len(rest), cap(recs[0].Data))
	}
	if _ = append(recs[0].Data, 'X'); string(recs[1].Data) != "cd" {
		t.Fatalf("an append to one record's data reached the next: %q", recs[1].Data)
	}
}

func BenchmarkApplyDelta(b *testing.B) {
	p := New(1)
	data := bytes.Repeat([]byte{1}, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := deltaRec(core.LSN(i+1), 1, uint32(i%(PayloadSize-64)), data)
		if err := p.Apply(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeChain64(b *testing.B) {
	var chain []*core.Record
	for i := 0; i < 64; i++ {
		chain = append(chain, deltaRec(core.LSN(i+1), 1, uint32(i*8), []byte{1, 2, 3, 4}))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Materialize(1, nil, chain, 64); err != nil {
			b.Fatal(err)
		}
	}
}
