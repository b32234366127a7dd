package snapshot

import (
	"fmt"
	"io"
	"math"
)

// This file adds the VMAX section: the size of a pair's exact V_max
// (Lemma 7). RAF at α < 1 needs V_max only as a count, the union-bound
// dimension of the equation system and of Eq. 16, and the count is a
// pure function of the instance, so a spill blob carries it and a
// restored pair skips the whole-graph DFS.
//
// Layout (all fixed-width fields little-endian):
//
//	header (32 B): magic [8]B, version u32, streamEpoch u32,
//	               fingerprint u64, count i64
//	footer (8 B): CRC-32C of everything before it, then 4 zero bytes
const (
	// VmaxVersion is bumped on any incompatible VMAX layout change.
	VmaxVersion    = 1
	vmaxHeaderSize = 32
	vmaxSize       = vmaxHeaderSize + footerSize
)

var vmaxMagic = [8]byte{0x89, 'A', 'F', 'V', 'M', 'A', 'X', '\n'}

// vmaxSection describes the VMAX blob's shared header prefix; its two
// type-specific words are fingerprint and count
// (vmaxHeaderSize == sectionHeaderSize(2)).
var vmaxSection = sectionDesc{magic: vmaxMagic, version: VmaxVersion, name: "vmax"}

// VmaxState is the serialized |V_max| of one problem instance.
// Fingerprint names the instance (engine.Engine.Fingerprint), so a
// loader adopts the count only for the instance it was computed on.
type VmaxState struct {
	StreamEpoch uint32
	Fingerprint uint64
	Count       int64
}

// IsVmax reports whether b begins with the VMAX magic — the peek a
// decoder uses to decide whether the optional section follows.
func IsVmax(b []byte) bool { return vmaxSection.is(b) }

// WriteVmax serializes st to w in the snapshot format.
func WriteVmax(w io.Writer, st *VmaxState) error {
	if st.Count < 0 || st.Count >= math.MaxInt32 {
		return fmt.Errorf("snapshot: malformed vmax count %d", st.Count)
	}
	cw := &crcWriter{w: w}
	var hdr [vmaxHeaderSize]byte
	vmaxSection.put(hdr[:], st.StreamEpoch, []uint64{st.Fingerprint, uint64(st.Count)})
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	return writeFooter(w, cw)
}

// DecodeVmaxNext parses the VMAX section at the start of data and
// returns it with its encoded size, leaving trailing bytes for the
// caller.
func DecodeVmaxNext(data []byte) (*VmaxState, int64, error) {
	var words [2]uint64
	se, err := vmaxSection.parse(data, words[:])
	if err != nil {
		return nil, 0, err
	}
	if len(data) < vmaxSize {
		return nil, 0, fmt.Errorf("%w: vmax section of %d bytes, have %d", ErrFormat, vmaxSize, len(data))
	}
	if err := checkFooter(data, vmaxSize); err != nil {
		return nil, 0, err
	}
	st := &VmaxState{StreamEpoch: se, Fingerprint: words[0], Count: int64(words[1])}
	if st.Count < 0 || st.Count >= math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: vmax count %d", ErrFormat, st.Count)
	}
	return st, vmaxSize, nil
}
