package core

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
)

// encodeBody returns r in the one record encoding there is: the body a batch
// (or a snapshot's log region) carries, integrity left to the enclosing CRC.
func encodeBody(r *Record) []byte {
	buf := make([]byte, r.BodySize())
	if n := r.PutBody(buf); n != len(buf) {
		panic("PutBody wrote a different length than BodySize")
	}
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{LSN: 1, PrevLSN: 0, Type: RecPageDelta, PG: 0, Page: 0, Txn: 1, Offset: 0, Data: []byte{1}},
		{LSN: 42, PrevLSN: 17, Type: RecPageInit, Flags: FlagCPL, PG: 3, Page: 999, Txn: 7, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		{LSN: 100, PrevLSN: 99, Type: RecTxnCommit, Flags: FlagCPL, PG: 1, Txn: 55},
		{LSN: 1 << 62, PrevLSN: 1<<62 - 1, Type: RecTxnAbort, PG: 1<<32 - 1, Vol: 1<<32 - 1, Page: 1<<63 - 1, Txn: 1<<64 - 1, Offset: 1<<32 - 1, Data: []byte("hello")},
	}
	for i, want := range cases {
		buf := encodeBody(&want)
		var got Record
		n, err := DecodeRecordInto(buf, &got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(buf))
		}
		if !recordsEqual(&got, &want) || got.Vol != want.Vol {
			t.Fatalf("case %d: got %v want %v", i, got.String(), want.String())
		}
	}
}

func recordsEqual(a, b *Record) bool {
	return a.LSN == b.LSN && a.PrevLSN == b.PrevLSN && a.Type == b.Type &&
		a.Flags == b.Flags && a.PG == b.PG && a.Page == b.Page &&
		a.Txn == b.Txn && a.Offset == b.Offset && bytes.Equal(a.Data, b.Data)
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(lsn, prev, page, txn uint64, pg, offset uint32, typ uint8, cpl bool, data []byte) bool {
		r := Record{
			LSN: LSN(lsn), PrevLSN: LSN(prev), Page: PageID(page), Txn: txn,
			PG: PGID(pg), Offset: offset,
			Type: RecordType(typ%uint8(RecCheckpointHint)) + 1,
			Data: data,
		}
		if cpl {
			r.Flags = FlagCPL
		}
		buf := encodeBody(&r)
		var got Record
		if n, err := DecodeRecordInto(buf, &got); err != nil || n != len(buf) {
			return false
		}
		if len(got.Data) == 0 && len(r.Data) == 0 {
			got.Data, r.Data = nil, nil
		}
		return recordsEqual(&got, &r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordDecodeCorruption(t *testing.T) {
	r := Record{LSN: 9, PrevLSN: 8, Type: RecPageDelta, PG: 2, Page: 5, Txn: 3, Offset: 10, Data: []byte("payload")}
	buf := encodeBody(&r)

	t.Run("short buffer", func(t *testing.T) {
		var got Record
		for i := 0; i < len(buf); i++ {
			if _, err := DecodeRecordInto(buf[:i], &got); err == nil {
				t.Fatalf("decode of %d-byte prefix succeeded", i)
			}
		}
	})
	// A body carries no checksum of its own: the batch around it does, over
	// every body byte, and a single flipped bit cannot leave a CRC valid.
	t.Run("flipped bit", func(t *testing.T) {
		m := &MTR{Txn: r.Txn}
		m.AddDelta(r.PG, r.Page, r.Offset, r.Data)
		g, err := NewFramer(NewAllocator(ZeroLSN, 0), nil).FrameGroup(context.Background(), []*MTR{m})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Release()
		wire := g.Batches[0].Wire
		for i := batchHeaderSize; i < len(wire); i++ {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), wire...)
				bad[i] ^= 1 << bit
				if v, _, err := ParseBatchView(bad); err == nil && v.Verify() == nil {
					t.Fatalf("batch with bit %d of body byte %d flipped verified", bit, i-batchHeaderSize)
				}
			}
		}
	})
	t.Run("zero type rejected", func(t *testing.T) {
		bad := Record{LSN: 1, Type: RecordType(0), PG: 1}
		var got Record
		if _, err := DecodeRecordInto(encodeBody(&bad), &got); err == nil {
			t.Fatal("record with type 0 decoded")
		}
	})
}

func TestRecordClone(t *testing.T) {
	r := Record{LSN: 5, Type: RecPageDelta, Data: []byte{1, 2, 3}}
	c := r.Clone()
	r.Data[0] = 99
	if c.Data[0] != 1 {
		t.Fatal("clone shares data with original")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	m := &MTR{Txn: 1}
	for i := 0; i < 10; i++ {
		m.AddDelta(7, PageID(i%3), uint32(i*4), []byte{byte(i)})
	}
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	g, err := f.FrameGroup(context.Background(), []*MTR{m})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	buf := g.Batches[0].Wire
	size := batchHeaderSize
	for i := range m.Records {
		size += m.Records[i].BodySize()
	}
	if len(buf) != size {
		t.Fatalf("encoded %d, header + record bodies %d", len(buf), size)
	}
	v, n, err := ParseBatchView(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || v.PG() != 7 || v.NumRecords() != 10 {
		t.Fatalf("decode mismatch: n=%d pg=%d count=%d", n, v.PG(), v.NumRecords())
	}
	// The framer stamped LSN 1..10 with backlinks 0..9 onto m.Records in
	// place; the wire must carry exactly those records.
	i := 0
	err = v.EachRecord(func(got *Record) bool {
		want := &m.Records[i]
		if want.LSN != LSN(i+1) || want.PrevLSN != LSN(i) {
			t.Fatalf("record %d framed as LSN %d prev %d", i, want.LSN, want.PrevLSN)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
		i++
		return true
	})
	if err != nil || i != 10 {
		t.Fatalf("walked %d records, err %v", i, err)
	}
}

func TestBatchDecodeEmpty(t *testing.T) {
	// The framer never emits an empty batch, but the decoder must still
	// accept one (a bare header describing a zero-length body).
	buf := make([]byte, batchHeaderSize)
	putBatchHeader(buf, 1, 0, 0, 0, ZeroLSN, ZeroLSN, nil)
	v, _, err := ParseBatchView(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	records := 0
	if err := v.EachRecord(func(*Record) bool { records++; return true }); err != nil {
		t.Fatal(err)
	}
	if records != 0 || v.NumRecords() != 0 {
		t.Fatal("expected empty batch")
	}
	if _, _, err := ParseBatchView(nil); err == nil {
		t.Fatal("decode of nil buffer succeeded")
	}
}

func TestRecordPredicates(t *testing.T) {
	d := Record{Type: RecPageDelta}
	if !d.PageRecord() {
		t.Fatal("delta should be a page record")
	}
	c := Record{Type: RecTxnCommit, Flags: FlagCPL}
	if c.PageRecord() {
		t.Fatal("commit is not a page record")
	}
	if !c.IsCPL() {
		t.Fatal("flagged record should be CPL")
	}
}
