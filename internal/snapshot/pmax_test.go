package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func testPmaxState() *PmaxState {
	return &PmaxState{
		Seed:        42,
		NS:          0x506D6178,
		Fingerprint: 0xDEADBEEFCAFEF00D,
		Draws:       10000,
		Successes:   []int64{0, 3, 100, 2047, 2048, 5000, 9999},
	}
}

func TestPmaxRoundTrip(t *testing.T) {
	for _, st := range []*PmaxState{
		testPmaxState(),
		{Seed: -7, NS: 1, Fingerprint: 2, Draws: 0, Successes: nil}, // empty ledger
		{Seed: 0, NS: 0, Fingerprint: 0, Draws: 5, Successes: []int64{4}},
	} {
		var buf bytes.Buffer
		if err := WritePmax(&buf, st); err != nil {
			t.Fatalf("%+v: write: %v", st, err)
		}
		if got, want := int64(buf.Len()), EncodedSizePmax(st); got != want {
			t.Errorf("encoded size %d, want %d", got, want)
		}
		if buf.Len()%8 != 0 {
			t.Errorf("blob size %d not a multiple of 8", buf.Len())
		}
		if !IsPmax(buf.Bytes()) {
			t.Error("IsPmax false on a pmax blob")
		}
		got, err := ReadPmax(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		want := *st
		if want.Successes == nil {
			want.Successes = []int64{}
		}
		if got.Seed != want.Seed || got.NS != want.NS || got.Fingerprint != want.Fingerprint ||
			got.Draws != want.Draws || !reflect.DeepEqual(got.Successes, want.Successes) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
		// Decode over the raw bytes agrees.
		dec, err := DecodePmax(buf.Bytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(dec.Successes, got.Successes) || dec.Draws != got.Draws {
			t.Errorf("decode diverged from read: %+v vs %+v", dec, got)
		}
	}
}

// TestPmaxConcatenatesAfterPool: a spill file is pool blobs followed by a
// pmax blob; reading them in sequence consumes each exactly.
func TestPmaxConcatenatesAfterPool(t *testing.T) {
	pool := &Pool{Seed: 1, NS: 2, Universe: 4, Total: 10,
		Offsets: []int32{0, 2}, PathDraw: []int64{3}, Arena: []int32{2, 3}}
	st := testPmaxState()
	var buf bytes.Buffer
	if err := Write(&buf, pool); err != nil {
		t.Fatal(err)
	}
	if err := WritePmax(&buf, st); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	if _, err := Read(r); err != nil {
		t.Fatalf("pool read: %v", err)
	}
	got, err := ReadPmax(r)
	if err != nil {
		t.Fatalf("pmax read: %v", err)
	}
	if got.Draws != st.Draws || !reflect.DeepEqual(got.Successes, st.Successes) {
		t.Errorf("pmax after pool: %+v, want %+v", got, st)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left unread", r.Len())
	}
	// IsPmax distinguishes the sections: a pool blob is not a pmax blob.
	if IsPmax(buf.Bytes()) {
		t.Error("IsPmax true on a pool blob")
	}
}

func TestPmaxRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePmax(&buf, testPmaxState()); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	bad := append([]byte(nil), blob...)
	bad[pmaxHeaderSize+3] ^= 0x40
	if _, err := DecodePmax(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("payload corruption: err = %v, want ErrChecksum", err)
	}

	// Version skew.
	bad = append([]byte(nil), blob...)
	putU32(bad[8:], PmaxVersion+1)
	if _, err := DecodePmax(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: err = %v, want ErrVersion", err)
	}

	// Bad magic.
	bad = append([]byte(nil), blob...)
	bad[0] = 'x'
	if _, err := DecodePmax(bad); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: err = %v, want ErrFormat", err)
	}

	// Truncated stream.
	if _, err := ReadPmax(bytes.NewReader(blob[:len(blob)-4])); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated: err = %v, want ErrFormat", err)
	}

	// Header claiming more successes than draws.
	bad = append([]byte(nil), blob...)
	putU64(bad[48:], uint64(1<<40))
	if _, err := ReadPmax(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("impossible success count: err = %v, want ErrFormat", err)
	}
}

func TestPmaxWriteRejectsMalformed(t *testing.T) {
	for _, st := range []*PmaxState{
		{Draws: 10, Successes: []int64{5, 5}},  // not strictly ascending
		{Draws: 10, Successes: []int64{3, 2}},  // descending
		{Draws: 10, Successes: []int64{10}},    // out of range
		{Draws: 10, Successes: []int64{-1, 2}}, // negative
	} {
		if err := WritePmax(&bytes.Buffer{}, st); err == nil {
			t.Errorf("WritePmax(%+v) accepted malformed state", st)
		}
	}
}
