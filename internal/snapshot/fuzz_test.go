package snapshot

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead throws arbitrary bytes at the decoder: whatever the input, it
// must return a pool or an error — never panic, and never allocate
// beyond the bytes actually present (huge header claims are capped
// against the data before any slice is made). Inputs that do decode must
// re-encode to a blob that decodes to the same pool, and every path of
// a decoded pool is strictly ascending.
func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	for _, p := range []*Pool{
		testPool(1, 50, 10),
		testPool(2, 300, 40),
		{Seed: 5, NS: 7, Universe: 3, Total: 0, Offsets: []int32{0}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Seed a few targeted corruptions so the interesting paths are in
		// the corpus even before the fuzzer mutates anything.
		for _, off := range []int{0, 8, 40, 48, 56, buf.Len() - 1} {
			mut := bytes.Clone(buf.Bytes())
			mut[off] ^= 0x80
			f.Add(mut)
		}
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// A checksum-valid blob with one path in walk (descending) order, at
	// the current version and as a version 1 blob.
	walk := testPool(3, 200, 30)
	reverseLongestPath(walk)
	var buf bytes.Buffer
	if err := Write(&buf, walk); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	v1 := bytes.Clone(buf.Bytes())
	putU32(v1[8:], 1)
	f.Add(resum(v1))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < p.NumPaths(); i++ {
			path := p.Arena[p.Offsets[i]:p.Offsets[i+1]]
			for k := 1; k < len(path); k++ {
				if path[k] <= path[k-1] {
					t.Fatalf("accepted path %d = %v, not strictly ascending", i, path)
				}
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("re-encoding a decoded pool: %v", err)
		}
		q, n, err := DecodeNext(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decoding a re-encoded pool: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("re-decoded size = %d, want %d", n, buf.Len())
		}
		checkEqual(t, q, p)
		// DecodeNext must agree with Read on the same bytes.
		if _, _, err := DecodeNext(data); err != nil {
			t.Fatalf("DecodeNext rejects what Read accepted: %v", err)
		}
	})
}

// FuzzReadTouch throws arbitrary bytes at the TOUCH v2 decoder. Whatever
// the input it must return a touch set or an error, never panic; a set
// it accepts must keep the invariants repair relies on — in particular
// no word naming a group beyond its chunk's group count — and re-encode
// to the exact bytes it was decoded from. The seeds are valid dense and
// sparse sections, checksum-valid sections whose words name groups past
// the chunk's draws, and targeted corruptions.
func FuzzReadTouch(f *testing.F) {
	f.Add([]byte{})
	f.Add(touchMagic[:])
	encode := func(ts *TouchSet) []byte {
		var buf bytes.Buffer
		if err := WriteTouch(&buf, ts); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	beyondPartial, beyondFull := testTouchSet(), testTouchSet()
	beyondPartial.Masks[14] = 2 // the 44-draw trailing chunk holds one group
	beyondFull.Masks[2] = 4     // a 128-draw chunk holds two groups
	for _, ts := range []*TouchSet{
		testTouchSet(),
		{Universe: 10, ChunkSize: 128, GroupSize: 64, NodeOffsets: []int32{0}, MaskOffsets: []int32{0}},
		{StreamEpoch: 2, Universe: 3, Total: 2000, ChunkSize: 2048, GroupSize: 64,
			NodeOffsets: []int32{0, 0}, MaskOffsets: []int32{0, 3}, Masks: []uint32{1<<32 - 1, 0, 1 << 31}},
		beyondPartial,
		beyondFull,
	} {
		data := encode(ts)
		f.Add(data)
		for _, off := range []int{0, 8, 12, 16, 24, 40, 48, 56, 64, touchHeaderSize, len(data) - 1} {
			if off < len(data) {
				mut := bytes.Clone(data)
				mut[off] ^= 0x80
				f.Add(mut)
			}
		}
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, n, err := DecodeTouchNext(data)
		if err != nil {
			return
		}
		for c := 0; c < ts.NumChunks(); c++ {
			draws := min(ts.ChunkSize, ts.Total-int64(c)*ts.ChunkSize)
			groups := (draws + ts.GroupSize - 1) / ts.GroupSize
			for _, m := range ts.Masks[ts.MaskOffsets[c]:ts.MaskOffsets[c+1]] {
				if uint64(m)>>groups != 0 {
					t.Fatalf("chunk %d of %d draws accepted word %#x naming a group past %d", c, draws, m, groups)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteTouch(&buf, ts); err != nil {
			t.Fatalf("re-encoding a decoded touch set: %v", err)
		}
		if int64(buf.Len()) != n {
			t.Fatalf("re-encoded %d bytes, decoded %d", buf.Len(), n)
		}
		again, err := ReadTouch(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded touch set: %v", err)
		}
		if !reflect.DeepEqual(again, ts) {
			t.Fatal("re-encoded touch set decodes differently")
		}
		if _, err := ReadTouch(bytes.NewReader(data)); err != nil {
			t.Fatalf("ReadTouch rejects what DecodeTouchNext accepted: %v", err)
		}
	})
}
