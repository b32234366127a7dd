package snapshot

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// testPool builds a deterministic well-formed pool with paths of varying
// length (including empty gaps between draws), each path strictly
// ascending as pools store them.
func testPool(seed int64, total int64, universe int32) *Pool {
	r := rand.New(rand.NewSource(seed))
	p := &Pool{Seed: seed, NS: 0xABCD, Universe: int64(universe), Total: total, Offsets: []int32{0}}
	for d := int64(0); d < total; d++ {
		if r.Intn(3) == 0 {
			continue // type-2 draw: no path
		}
		n := 1 + r.Intn(min(5, int(universe)))
		path := r.Perm(int(universe))[:n]
		slices.Sort(path)
		for _, v := range path {
			p.Arena = append(p.Arena, int32(v))
		}
		p.Offsets = append(p.Offsets, int32(len(p.Arena)))
		p.PathDraw = append(p.PathDraw, d)
	}
	return p
}

func encode(t *testing.T, p *Pool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), EncodedSize(p); got != want {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", got, want)
	}
	return buf.Bytes()
}

func checkEqual(t *testing.T, got, want *Pool) {
	t.Helper()
	if got.Seed != want.Seed || got.NS != want.NS || got.Universe != want.Universe || got.Total != want.Total {
		t.Fatalf("metadata mismatch: got %+v want %+v", got, want)
	}
	if !reflect.DeepEqual(got.Offsets, want.Offsets) {
		t.Fatalf("offsets differ: %v vs %v", got.Offsets, want.Offsets)
	}
	if !reflect.DeepEqual(got.PathDraw, want.PathDraw) {
		t.Fatalf("pathDraw differ: %v vs %v", got.PathDraw, want.PathDraw)
	}
	if !reflect.DeepEqual(got.Arena, want.Arena) {
		t.Fatalf("arena differ: %v vs %v", got.Arena, want.Arena)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, p := range []*Pool{
		testPool(7, 500, 40),
		testPool(8, 1, 1),
		{Seed: 3, NS: 9, Universe: 5, Total: 0, Offsets: []int32{0}, PathDraw: []int64{}, Arena: []int32{}}, // empty pool
	} {
		data := encode(t, p)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		checkEqual(t, got, p)
		got2, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		checkEqual(t, got2, p)
	}
}

func TestReadLeavesTrailingBytes(t *testing.T) {
	a, b := testPool(1, 300, 20), testPool(2, 200, 20)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	gotA, err := Read(r)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := Read(r)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, gotA, a)
	checkEqual(t, gotB, b)
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unread", r.Len())
	}
}

func TestDecodeNextContainer(t *testing.T) {
	a, b := testPool(1, 300, 20), testPool(2, 200, 20)
	data := append(encode(t, a), encode(t, b)...)
	gotA, n, err := DecodeNext(data)
	if err != nil {
		t.Fatal(err)
	}
	gotB, m, err := DecodeNext(data[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+m != int64(len(data)) {
		t.Fatalf("consumed %d+%d of %d bytes", n, m, len(data))
	}
	checkEqual(t, gotA, a)
	checkEqual(t, gotB, b)
	if _, err := Decode(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("Decode with trailing snapshot: err = %v, want ErrFormat", err)
	}
}

func TestCorruption(t *testing.T) {
	p := testPool(5, 400, 30)
	good := encode(t, p)
	t.Run("checksum", func(t *testing.T) {
		for _, off := range []int{headerSize + 1, len(good) / 2, len(good) - footerSize} {
			data := bytes.Clone(good)
			data[off] ^= 0x40
			if _, err := Decode(data); !errors.Is(err, ErrChecksum) {
				t.Errorf("flip at %d: err = %v, want ErrChecksum", off, err)
			}
		}
	})
	t.Run("magic", func(t *testing.T) {
		data := bytes.Clone(good)
		data[0] ^= 0xFF
		if _, err := Decode(data); !errors.Is(err, ErrFormat) {
			t.Errorf("err = %v, want ErrFormat", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		data := bytes.Clone(good)
		data[8] = 99
		if _, err := Decode(data); !errors.Is(err, ErrVersion) {
			t.Errorf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, headerSize - 1, headerSize, len(good) - 1} {
			if _, err := Decode(good[:n]); err == nil {
				t.Errorf("truncation to %d bytes decoded", n)
			}
			if _, err := Read(bytes.NewReader(good[:n])); err == nil {
				t.Errorf("truncation to %d bytes read", n)
			}
		}
	})
	t.Run("huge-claimed-sizes", func(t *testing.T) {
		// A header claiming astronomical sections on a short stream must
		// error out without allocating them.
		data := bytes.Clone(good[:headerSize])
		putU64(data[56:], 1<<40) // numPaths
		putU64(data[48:], 1<<41) // total, so numPaths ≤ total passes
		putU64(data[64:], 1<<40) // arenaLen
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Error("huge header read succeeded")
		}
		if _, err := Decode(data); err == nil {
			t.Error("huge header decoded")
		}
	})
}

func TestSemanticValidation(t *testing.T) {
	base := testPool(9, 200, 25)
	mutate := func(fn func(p *Pool)) []byte {
		p := &Pool{Seed: base.Seed, NS: base.NS, Universe: base.Universe, Total: base.Total,
			Offsets:  append([]int32{}, base.Offsets...),
			PathDraw: append([]int64{}, base.PathDraw...),
			Arena:    append([]int32{}, base.Arena...)}
		fn(p)
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			// Write itself may reject; re-encode manually by patching the
			// good bytes is overkill — treat a Write rejection as a pass.
			return nil
		}
		return buf.Bytes()
	}
	cases := map[string]func(p *Pool){
		"node-out-of-universe": func(p *Pool) { p.Arena[0] = int32(p.Universe) },
		"negative-node":        func(p *Pool) { p.Arena[0] = -1 },
		"draw-out-of-range":    func(p *Pool) { p.PathDraw[len(p.PathDraw)-1] = p.Total },
		"draw-not-ascending":   func(p *Pool) { p.PathDraw[1] = p.PathDraw[0] },
		"path-not-ascending":   func(p *Pool) { reverseLongestPath(p) },
		"path-repeats-a-node": func(p *Pool) {
			i := longestPath(p)
			p.Arena[p.Offsets[i]+1] = p.Arena[p.Offsets[i]]
		},
		"offsets-descending": func(p *Pool) {
			p.Offsets[1], p.Offsets[2] = p.Offsets[2], p.Offsets[1]
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			data := mutate(fn)
			if data == nil {
				return
			}
			if _, err := Decode(data); !errors.Is(err, ErrFormat) {
				t.Errorf("err = %v, want ErrFormat", err)
			}
		})
	}
}

// longestPath returns the index of p's first longest path.
func longestPath(p *Pool) int {
	best := 0
	for i := 1; i < p.NumPaths(); i++ {
		if p.Offsets[i+1]-p.Offsets[i] > p.Offsets[best+1]-p.Offsets[best] {
			best = i
		}
	}
	return best
}

// reverseLongestPath stores p's longest path in descending order: the
// walk order version 1 snapshots carried.
func reverseLongestPath(p *Pool) {
	i := longestPath(p)
	slices.Reverse(p.Arena[p.Offsets[i]:p.Offsets[i+1]])
}

// TestVersion1Rejected: a version 1 blob — paths in walk order — fails
// with ErrVersion even when its bytes are otherwise sound, so a loader
// resamples instead of folding unsorted paths.
func TestVersion1Rejected(t *testing.T) {
	p := testPool(13, 300, 30)
	reverseLongestPath(p)
	data := encode(t, p)
	putU32(data[8:], 1)
	data = resum(data)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode: err = %v, want ErrVersion", err)
	}
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("Read: err = %v, want ErrVersion", err)
	}
}

// resum rewrites a single blob's CRC footer after a header edit.
func resum(data []byte) []byte {
	body := data[:len(data)-footerSize]
	putU32(data[len(body):], crc32.Checksum(body, crcTable))
	return data
}

func TestDecodeMisaligned(t *testing.T) {
	p := testPool(11, 300, 30)
	good := encode(t, p)
	// Shift the blob to every sub-word offset: decode must still succeed
	// (copying instead of casting when the input is misaligned).
	for shift := 1; shift < 8; shift++ {
		buf := make([]byte, shift+len(good))
		copy(buf[shift:], good)
		got, err := Decode(buf[shift:])
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		checkEqual(t, got, p)
	}
}

func TestWriteRejectsMalformedPool(t *testing.T) {
	p := testPool(2, 100, 10)
	p.PathDraw = p.PathDraw[:len(p.PathDraw)-1]
	if err := Write(&bytes.Buffer{}, p); err == nil {
		t.Fatal("Write accepted offsets/pathDraw length mismatch")
	}
}
