package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
)

// Every blob type in the snapshot format — pool, p_max state, touch
// set, V_max count — shares one fixed-size header shape: an 8-byte
// magic, a u32 format version, a u32 stream epoch, then a type-specific
// run of u64 words. sectionDesc captures the per-type constants and
// factors the encode and decode of that shared prefix, so adding a
// section type means declaring a descriptor and its words instead of
// another hand-rolled putU64/getU64 block.
type sectionDesc struct {
	magic   [8]byte
	version uint32
	// name labels the section in error messages ("pool", "pmax",
	// "touch", "vmax"), so a load failure names which blob of a concatenated
	// spill record was bad.
	name string
}

// sectionHeaderSize returns the encoded header size for a section with
// nWords type-specific u64 words.
func sectionHeaderSize(nWords int) int { return 16 + 8*nWords }

// is reports whether b begins with this section's magic — the peek used
// to decide whether an optional section follows in a concatenated blob
// stream.
func (sd *sectionDesc) is(b []byte) bool {
	return len(b) >= 8 && [8]byte(b[:8]) == sd.magic
}

// put serializes the shared prefix and the type-specific words into hdr,
// which must be at least sectionHeaderSize(len(words)) bytes.
func (sd *sectionDesc) put(hdr []byte, streamEpoch uint32, words []uint64) {
	copy(hdr[:8], sd.magic[:])
	putU32(hdr[8:], sd.version)
	putU32(hdr[12:], streamEpoch)
	for i, w := range words {
		putU64(hdr[16+8*i:], w)
	}
}

// parse validates the magic and version at the start of b and fills
// words with the type-specific u64 run, returning the stream epoch.
// Semantic validation of the words (geometry limits and the like) stays
// with the caller, which knows what each word means.
func (sd *sectionDesc) parse(b []byte, words []uint64) (uint32, error) {
	size := sectionHeaderSize(len(words))
	if len(b) < size {
		return 0, fmt.Errorf("%w: %d-byte blob shorter than the %d-byte %s header", ErrFormat, len(b), size, sd.name)
	}
	if [8]byte(b[:8]) != sd.magic {
		return 0, fmt.Errorf("%w: bad %s magic", ErrFormat, sd.name)
	}
	if v := getU32(b[8:]); v != sd.version {
		return 0, fmt.Errorf("%w: %s version %d (want %d)", ErrVersion, sd.name, v, sd.version)
	}
	for i := range words {
		words[i] = getU64(b[16+8*i:])
	}
	return getU32(b[12:]), nil
}

// Every section ends in the same 8-byte footer: the CRC-32C of every
// byte before it, then 4 zero pad bytes that keep the section's size a
// multiple of 8.

// writeFooter writes the footer closing a section whose bytes went
// through cw.
func writeFooter(w io.Writer, cw *crcWriter) error {
	var foot [footerSize]byte
	putU32(foot[:], cw.crc)
	_, err := w.Write(foot[:])
	return err
}

// checkFooter verifies the footer of the size-byte section at the start
// of data, which holds at least size bytes: the CRC must match and the
// pad must be zero, so no byte of a section escapes the check.
func checkFooter(data []byte, size int64) error {
	foot := data[size-footerSize : size]
	if crc32.Checksum(data[:size-footerSize], crcTable) != getU32(foot) || getU32(foot[4:]) != 0 {
		return fmt.Errorf("%w", ErrChecksum)
	}
	return nil
}
