package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

func TestVmaxRoundTrip(t *testing.T) {
	for _, st := range []VmaxState{
		{StreamEpoch: 3, Fingerprint: 0xDEADBEEFCAFEF00D, Count: 57},
		{Count: 0},
	} {
		var buf bytes.Buffer
		if err := WriteVmax(&buf, &st); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != vmaxSize || buf.Len()%8 != 0 {
			t.Fatalf("VMAX section is %d bytes, want %d", buf.Len(), vmaxSize)
		}
		if !IsVmax(buf.Bytes()) || IsPmax(buf.Bytes()) || IsTouch(buf.Bytes()) {
			t.Fatal("VMAX magic not told apart from the other sections")
		}
		buf.WriteString("trailing")
		got, n, err := DecodeVmaxNext(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if *got != st {
			t.Errorf("round trip: got %+v, want %+v", *got, st)
		}
		if n != vmaxSize {
			t.Errorf("DecodeVmaxNext spans %d bytes, want %d before the trailing ones", n, vmaxSize)
		}
	}
	if err := WriteVmax(&bytes.Buffer{}, &VmaxState{Count: -1}); err == nil {
		t.Error("WriteVmax accepted a negative count")
	}
}

func TestVmaxRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVmax(&buf, &VmaxState{StreamEpoch: 3, Fingerprint: 9, Count: 12}); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for name, tc := range map[string]struct {
		mut  func([]byte) []byte
		want error
	}{
		"count":     {func(b []byte) []byte { b[24] ^= 1; return b }, ErrChecksum},
		"crc":       {func(b []byte) []byte { b[vmaxHeaderSize] ^= 1; return b }, ErrChecksum},
		"version":   {func(b []byte) []byte { putU32(b[8:], VmaxVersion+1); return b }, ErrVersion},
		"magic":     {func(b []byte) []byte { b[1] = 'x'; return b }, ErrFormat},
		"truncated": {func(b []byte) []byte { return b[:vmaxSize-1] }, ErrFormat},
		"negative":  {func(b []byte) []byte { putU64(b[24:], 1<<63); return resum(b) }, ErrFormat},
	} {
		if _, _, err := DecodeVmaxNext(tc.mut(bytes.Clone(blob))); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestFooterPadChecked: the 4 pad bytes that end every section's footer
// are checked with its CRC, so flipping a section's last byte fails its
// decode with ErrChecksum, for each section type.
func TestFooterPadChecked(t *testing.T) {
	var pool, pmax, touch, vmax bytes.Buffer
	if err := Write(&pool, testPool(1, 50, 10)); err != nil {
		t.Fatal(err)
	}
	if err := WritePmax(&pmax, testPmaxState()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTouch(&touch, testTouchSet()); err != nil {
		t.Fatal(err)
	}
	if err := WriteVmax(&vmax, &VmaxState{Count: 3}); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		blob   []byte
		decode func([]byte) error
	}{
		"pool":  {pool.Bytes(), func(b []byte) error { _, _, err := DecodeNext(b); return err }},
		"pmax":  {pmax.Bytes(), func(b []byte) error { _, _, err := DecodePmaxNext(b); return err }},
		"touch": {touch.Bytes(), func(b []byte) error { _, _, err := DecodeTouchNext(b); return err }},
		"vmax":  {vmax.Bytes(), func(b []byte) error { _, _, err := DecodeVmaxNext(b); return err }},
	} {
		if err := tc.decode(tc.blob); err != nil {
			t.Fatalf("%s: valid section rejected: %v", name, err)
		}
		for i := 1; i <= 4; i++ {
			b := bytes.Clone(tc.blob)
			b[len(b)-i] ^= 0x80
			if err := tc.decode(b); !errors.Is(err, ErrChecksum) {
				t.Errorf("%s: flipped pad byte %d from the end: err = %v, want ErrChecksum", name, i, err)
			}
		}
	}
}
