package core

import (
	"bytes"
	"context"
	"testing"
)

// fuzzBatchSeeds frames two small groups and returns their batches' wire
// images: a page delta with data, one without, and a commit.
func fuzzBatchSeeds(f *testing.F) [][]byte {
	fr := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	var wires [][]byte
	for i := 0; i < 2; i++ {
		m := &MTR{Txn: uint64(i + 1)}
		m.AddDelta(PGID(i), PageID(i+3), 8, bytes.Repeat([]byte{byte(i + 1)}, 5+i))
		m.AddDelta(PGID(i), PageID(i+4), 0, nil)
		g, err := fr.FrameGroup(context.Background(), []*MTR{m})
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range g.Batches {
			wires = append(wires, append([]byte(nil), b.Wire...))
		}
		g.Release()
	}
	return wires
}

// FuzzParseBatchView feeds arbitrary bytes to the batch decoder a storage
// node runs on every delivery. Nothing may panic, and a batch whose records
// all decode must re-encode to its body byte for byte.
func FuzzParseBatchView(f *testing.F) {
	for _, w := range fuzzBatchSeeds(f) {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, n, err := ParseBatchView(buf)
		if err != nil {
			return
		}
		if n != v.Len() || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes for a %d-byte view", n, len(buf), v.Len())
		}
		_ = v.Verify() // a mismatch is an answer, not a failure
		var again []byte
		count := 0
		err = v.EachRecord(func(r *Record) bool {
			b := make([]byte, r.BodySize())
			r.PutBody(b)
			again = append(again, b...)
			count++
			return true
		})
		if err != nil {
			return
		}
		if count != v.NumRecords() || !bytes.Equal(again, v.Body()) {
			t.Fatalf("%d of %d records re-encode to %x, body %x", count, v.NumRecords(), again, v.Body())
		}
	})
}

// FuzzDecodeRecordInto: a record body that decodes re-encodes byte for byte
// over exactly the bytes it consumed.
func FuzzDecodeRecordInto(f *testing.F) {
	for _, w := range fuzzBatchSeeds(f) {
		f.Add(w[batchHeaderSize:])
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var r Record
		n, err := DecodeRecordInto(buf, &r)
		if err != nil {
			return
		}
		if n != r.BodySize() || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes for a %d-byte body", n, len(buf), r.BodySize())
		}
		again := make([]byte, n)
		if r.PutBody(again) != n || !bytes.Equal(again, buf[:n]) {
			t.Fatalf("re-encoded %x, decoded from %x", again, buf[:n])
		}
	})
}

// FuzzDecodeGeometry: a manifest that decodes re-encodes to one that
// decodes to an equal geometry.
func FuzzDecodeGeometry(f *testing.F) {
	f.Add(UniformGeometry(4).AppendEncode(nil))
	if g, err := UniformGeometry(2).MoveStripe(1, 0); err == nil {
		f.Add(g.AppendEncode(nil))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		g, err := DecodeGeometry(buf)
		if err != nil {
			return
		}
		h, err := DecodeGeometry(g.AppendEncode(nil))
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", g, err)
		}
		if h.Epoch() != g.Epoch() || h.PGs() != g.PGs() || h.Stripes() != g.Stripes() {
			t.Fatalf("round trip %v, decoded %v", h, g)
		}
		for s := 0; s < g.Stripes(); s++ {
			if h.StripePG(s) != g.StripePG(s) {
				t.Fatalf("stripe %d: round trip PG %d, decoded %d", s, h.StripePG(s), g.StripePG(s))
			}
		}
	})
}
