package snapshot

import (
	"bytes"
	"encoding/binary"
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

// FuzzReadTouch throws arbitrary bytes at the TOUCH v3 decoder and at
// the list reader repair uses. Whatever the input, decoding must return
// a touch set or an error, never panic; a set it accepts must keep the
// framing repair relies on — each chunk one offset per group plus its
// end, rising from 0 within its own lists — and re-encode to the exact
// bytes it was decoded from. Reading any accepted list against any dirty
// set must not panic either, and a list read as well formed names only
// nodes below the universe. The seeds are valid sections, checksum-valid
// sections with v3 edge cases (an empty group, a node at or beyond the
// universe, a zero gap, a truncated varint, offsets past the section,
// more groups than a chunk's draws) and targeted corruptions.
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
	// withList returns the test section with chunk 1's second list
	// replaced by raw bytes.
	withList := func(list []byte) *TouchSet {
		ts := testTouchSet()
		ch := &ts.Chunks[1]
		ch.Data = append(ch.Data[:ch.Offsets[1]:ch.Offsets[1]], list...)
		ch.Offsets[2] = uint32(len(ch.Data))
		return ts
	}
	valid := encode(testTouchSet())
	pastSection := bytes.Clone(valid)
	putU32(pastSection[touchHeaderSize+7*4:], 1000) // chunk 2's end offset
	moreGroups := bytes.Clone(valid)
	putU64(moreGroups[48:], 9) // offsetsLen for 9 groups' worth
	for _, data := range [][]byte{
		valid,
		encode(&TouchSet{Universe: 10, ChunkSize: 16, GroupSize: 8}),
		encode(&TouchSet{StreamEpoch: 3, Universe: 3, Total: 2000, ChunkSize: 2048, GroupSize: 8,
			Chunks: []TouchChunk{{Offsets: make([]uint32, 251), Data: nil}}}), // every group empty
		encode(withList(nil)),                               // an empty group
		encode(withList(AppendTouchList(nil, []int32{10}))), // a node at the universe
		encode(withList([]byte{2, 0, 3})),                   // a zero gap
		encode(withList([]byte{2, 0x80})),                   // a truncated varint
		resum(pastSection),
		resum(moreGroups),
	} {
		f.Add(data)
		for _, off := range []int{0, 8, 12, 16, 24, 32, 40, 48, 56, touchHeaderSize, len(data) - 9, len(data) - 1} {
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
		for c, ch := range ts.Chunks {
			groups := touchGroups(ts.Total, ts.ChunkSize, ts.GroupSize, c)
			if int64(len(ch.Offsets)) != groups+1 || ch.Offsets[0] != 0 || int(ch.Offsets[groups]) != len(ch.Data) {
				t.Fatalf("chunk %d accepted with %d offsets for %d groups over %d bytes", c, len(ch.Offsets), groups, len(ch.Data))
			}
			for g := int64(0); g < groups; g++ {
				if ch.Offsets[g] > ch.Offsets[g+1] {
					t.Fatalf("chunk %d accepted descending offsets at group %d", c, g)
				}
				list := ch.Data[ch.Offsets[g]:ch.Offsets[g+1]]
				for _, dirty := range [][]int32{{0}, {1, 5, 9}, {int32(ts.Universe) - 1}, {1 << 30}} {
					TouchListMeets(list, dirty, ts.Universe)
				}
				if _, ok := TouchListMeets(list, []int32{1<<31 - 1}, ts.Universe); ok {
					// Read to the end without a hit: every node is below the universe.
					prev := int64(-1)
					for rest := list; len(rest) > 0; {
						gap, k := binary.Uvarint(rest)
						prev += int64(gap)
						rest = rest[k:]
					}
					if prev >= ts.Universe {
						t.Fatalf("list %x read as well formed names node %d of a %d-node universe", list, prev, ts.Universe)
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteTouch(&buf, ts); err != nil {
			t.Fatalf("re-encoding a decoded touch set: %v", err)
		}
		// The footer's last 4 bytes lie outside the checksum, as in every
		// section, so only the checksummed bytes and the CRC must match.
		if int64(buf.Len()) != n || !bytes.Equal(buf.Bytes()[:n-4], data[:n-4]) {
			t.Fatal("re-encoded touch set differs from the bytes it was decoded from")
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
