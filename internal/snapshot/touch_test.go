package snapshot

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// testTouchSet is a three-chunk TOUCH v2 section over 10 nodes, chunks
// of 128 draws in groups of 64: chunk 0 dense, chunks 1 and 2 sparse; the
// 44-draw trailing chunk holds a single group.
func testTouchSet() *TouchSet {
	return &TouchSet{
		StreamEpoch: 2,
		Universe:    10,
		Total:       300,
		ChunkSize:   128,
		GroupSize:   64,
		NodeOffsets: []int32{0, 0, 3, 5},
		MaskOffsets: []int32{0, 10, 13, 15},
		Nodes:       []int32{1, 5, 9, 0, 4},
		Masks:       []uint32{1, 0, 3, 2, 0, 0, 1, 1, 3, 0, 1, 3, 2, 1, 1},
	}
}

func TestTouchRoundTrip(t *testing.T) {
	ts := testTouchSet()
	var buf bytes.Buffer
	if err := WriteTouch(&buf, ts); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), EncodedSizeTouch(ts); got != want {
		t.Fatalf("encoded %d bytes, EncodedSizeTouch says %d", got, want)
	}
	if !IsTouch(buf.Bytes()) {
		t.Fatal("IsTouch rejects a touch blob")
	}
	if IsPmax(buf.Bytes()) {
		t.Fatal("IsPmax accepts a touch blob")
	}

	got, err := ReadTouch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.StreamEpoch != ts.StreamEpoch || got.Universe != ts.Universe {
		t.Errorf("identity mismatch: %+v", got)
	}
	if got.Total != ts.Total || got.ChunkSize != ts.ChunkSize || got.GroupSize != ts.GroupSize {
		t.Errorf("geometry mismatch: %+v", got)
	}
	if !equalI32(got.NodeOffsets, ts.NodeOffsets) || !equalI32(got.MaskOffsets, ts.MaskOffsets) ||
		!equalI32(got.Nodes, ts.Nodes) || !slices.Equal(got.Masks, ts.Masks) {
		t.Errorf("payload mismatch: %+v", got)
	}

	// Decode with trailing bytes reports the exact blob size.
	withTail := append(append([]byte(nil), buf.Bytes()...), 0xAB, 0xCD)
	dec, n, err := DecodeTouchNext(withTail)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("DecodeTouchNext size %d, want %d", n, buf.Len())
	}
	if !equalI32(dec.Nodes, ts.Nodes) || !slices.Equal(dec.Masks, ts.Masks) {
		t.Errorf("decoded payload mismatch")
	}
}

func TestTouchEmptyChunks(t *testing.T) {
	ts := &TouchSet{Universe: 10, ChunkSize: 128, GroupSize: 64, NodeOffsets: []int32{0}, MaskOffsets: []int32{0}}
	var buf bytes.Buffer
	if err := WriteTouch(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTouch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks() != 0 || len(got.Nodes) != 0 {
		t.Errorf("empty round-trip: %+v", got)
	}
}

func TestTouchCorruption(t *testing.T) {
	ts := testTouchSet()
	var buf bytes.Buffer
	if err := WriteTouch(&buf, ts); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[touchHeaderSize+2] ^= 0x40
	if _, _, err := DecodeTouchNext(flipped); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload: err = %v, want ErrChecksum", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0
	if _, err := ReadTouch(bytes.NewReader(badMagic)); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: err = %v, want ErrFormat", err)
	}

	badVer := append([]byte(nil), good...)
	putU32(badVer[8:], TouchVersion+1)
	if _, err := ReadTouch(bytes.NewReader(badVer)); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: err = %v, want ErrVersion", err)
	}

	if _, err := ReadTouch(bytes.NewReader(good[:len(good)-4])); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated: err = %v, want ErrFormat", err)
	}

	// Structurally valid blobs that break a repair invariant must be
	// rejected on decode: unsorted sparse nodes, a zero sparse word, a
	// dense chunk short of the universe, a word naming a group beyond its
	// chunk's group count (the trailing 44-draw chunk holds one group;
	// a full chunk two), and a chunk count that disagrees with the draws.
	for name, mutate := range map[string]func(*TouchSet){
		"unsorted chunk":     func(ts *TouchSet) { ts.Nodes[0], ts.Nodes[1] = ts.Nodes[1], ts.Nodes[0] },
		"zero sparse word":   func(ts *TouchSet) { ts.Masks[11] = 0 },
		"short dense chunk":  func(ts *TouchSet) { ts.MaskOffsets = []int32{0, 9, 12, 14}; ts.Masks = ts.Masks[1:] },
		"bit beyond partial": func(ts *TouchSet) { ts.Masks[14] = 2 },
		"bit beyond full":    func(ts *TouchSet) { ts.Masks[2] = 4 },
		"chunks vs draws":    func(ts *TouchSet) { ts.Total = 500 },
	} {
		bad := testTouchSet()
		mutate(bad)
		var bbuf bytes.Buffer
		if err := WriteTouch(&bbuf, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTouch(bytes.NewReader(bbuf.Bytes())); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
