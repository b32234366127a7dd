package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// testTouchSet is a three-chunk TOUCH v3 section over 10 nodes, chunks of
// 16 draws in groups of 8: chunks 0 and 1 hold two groups, and the
// 8-draw trailing chunk one.
func testTouchSet() *TouchSet {
	chunk := func(lists ...[]int32) TouchChunk {
		ch := TouchChunk{Offsets: []uint32{0}}
		for _, l := range lists {
			ch.Data = AppendTouchList(ch.Data, l)
			ch.Offsets = append(ch.Offsets, uint32(len(ch.Data)))
		}
		return ch
	}
	return &TouchSet{
		StreamEpoch: 3,
		Universe:    10,
		Total:       40,
		ChunkSize:   16,
		GroupSize:   8,
		Chunks: []TouchChunk{
			chunk([]int32{0, 1, 2, 9}, []int32{5}),
			chunk([]int32{3, 4}, []int32{0, 7, 8}),
			chunk([]int32{9}),
		},
	}
}

// encodeTouch returns ts in the snapshot format.
func encodeTouch(t testing.TB, ts *TouchSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTouch(&buf, ts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTouchRoundTrip(t *testing.T) {
	ts := testTouchSet()
	data := encodeTouch(t, ts)
	var offsets, lists int64
	for _, ch := range ts.Chunks {
		offsets += int64(len(ch.Offsets))
		lists += int64(len(ch.Data))
	}
	if got, want := int64(len(data)), EncodedSizeTouchFor(offsets, lists); got != want {
		t.Fatalf("encoded %d bytes, EncodedSizeTouchFor says %d", got, want)
	}
	if !IsTouch(data) {
		t.Fatal("IsTouch rejects a touch blob")
	}
	if IsPmax(data) {
		t.Fatal("IsPmax accepts a touch blob")
	}

	got, err := ReadTouch(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Errorf("round trip: %+v, want %+v", got, ts)
	}

	// Decode with trailing bytes reports the exact blob size.
	withTail := append(bytes.Clone(data), 0xAB, 0xCD)
	dec, n, err := DecodeTouchNext(withTail)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Errorf("DecodeTouchNext size %d, want %d", n, len(data))
	}
	if !reflect.DeepEqual(dec, ts) {
		t.Errorf("decoded payload mismatch")
	}
}

func TestTouchEmptyChunks(t *testing.T) {
	ts := &TouchSet{Universe: 10, ChunkSize: 16, GroupSize: 8, Chunks: []TouchChunk{}}
	got, err := ReadTouch(bytes.NewReader(encodeTouch(t, ts)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks() != 0 {
		t.Errorf("empty round-trip: %+v", got)
	}
}

// TestTouchCorruption: a bad checksum, magic or version, a truncated
// blob, and checksum-valid blobs whose framing is wrong — offsets that
// do not start at 0, descend, run past the section or leave bytes over,
// and an offsets count that disagrees with the geometry — are all
// rejected on decode.
func TestTouchCorruption(t *testing.T) {
	good := encodeTouch(t, testTouchSet())

	flipped := bytes.Clone(good)
	flipped[touchHeaderSize+2] ^= 0x40
	if _, _, err := DecodeTouchNext(flipped); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload: err = %v, want ErrChecksum", err)
	}

	badMagic := bytes.Clone(good)
	badMagic[0] = 0
	if _, err := ReadTouch(bytes.NewReader(badMagic)); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: err = %v, want ErrFormat", err)
	}

	badVer := bytes.Clone(good)
	putU32(badVer[8:], TouchVersion-1)
	if _, err := ReadTouch(bytes.NewReader(badVer)); !errors.Is(err, ErrVersion) {
		t.Errorf("TOUCH v2 header: err = %v, want ErrVersion", err)
	}

	if _, err := ReadTouch(bytes.NewReader(good[:len(good)-4])); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated: err = %v, want ErrFormat", err)
	}

	// The offsets table starts right after the header: chunk 0 holds
	// offsets 0..2, chunk 1 offsets 3..5, chunk 2 offsets 6..7.
	off := func(b []byte, i int) []byte { return b[touchHeaderSize+4*i:] }
	for name, mutate := range map[string]func([]byte){
		"offsets not from 0":   func(b []byte) { putU32(off(b, 3), 1) },
		"offsets descend":      func(b []byte) { putU32(off(b, 1), 6) },
		"offsets past section": func(b []byte) { putU32(off(b, 7), 200) },
		"bytes left over":      func(b []byte) { putU32(off(b, 7), 0); putU32(off(b, 6), 0) },
		"more groups":          func(b []byte) { putU64(b[48:], 9) },
		"chunks vs draws":      func(b []byte) { putU64(b[24:], 60) },
		"group size":           func(b []byte) { putU64(b[40:], 3) },
	} {
		bad := bytes.Clone(good)
		mutate(bad)
		if _, _, err := DecodeTouchNext(resum(bad)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

// TestTouchListMeets: a list meets a dirty set exactly when it names one
// of its nodes, and a malformed list — empty, a truncated varint, a zero
// gap, a node at or beyond the universe — is reported as such wherever
// the reader reaches it.
func TestTouchListMeets(t *testing.T) {
	list := AppendTouchList(nil, []int32{0, 3, 200, 4000})
	for _, tc := range []struct {
		dirty []int32
		meets bool
	}{
		{nil, false}, {[]int32{0}, true}, {[]int32{1, 2}, false}, {[]int32{2, 200}, true},
		{[]int32{4000}, true}, {[]int32{4001, 9000}, false}, {[]int32{5, 3999}, false},
	} {
		meets, ok := TouchListMeets(list, tc.dirty, 5000)
		if meets != tc.meets || !ok {
			t.Errorf("dirty %v: meets=%v ok=%v, want meets=%v", tc.dirty, meets, ok, tc.meets)
		}
	}
	for name, bad := range map[string][]byte{
		"empty":           {},
		"truncated":       {1, 0x81},
		"zero gap":        {1, 0, 5},
		"beyond universe": AppendTouchList(nil, []int32{10, 5000}),
		"overlong gap":    {0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		if _, ok := TouchListMeets(bad, []int32{6000}, 5000); ok {
			t.Errorf("%s list %x read as well formed", name, bad)
		}
	}
	// Reading stops past dirty's last node: what follows cannot hide one.
	if meets, ok := TouchListMeets([]byte{1, 5, 0}, []int32{2}, 5000); meets || !ok {
		t.Errorf("list past the last dirty node: meets=%v ok=%v, want false, true", meets, ok)
	}
}
