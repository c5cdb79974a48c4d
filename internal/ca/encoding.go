package ca

import (
	"encoding/binary"
	"fmt"
)

// This file implements a concrete 128-bit in-memory encoding of the
// capability format in the style of CHERI Concentrate: a 64-bit address
// word plus a 64-bit metadata word holding permissions, object type,
// version color, and compressed bounds — an exponent E with the base
// quantum's low mantissa bits and the length in quanta. The tag is *not*
// part of the 128 bits; exactly as in hardware, validity travels out of
// band (package tmem models that).
//
// The simulator manipulates Capability structs for speed, but the encoding
// is load-bearing: Encode fails loudly if a capability's bounds escape the
// representable envelope (proving the derivation API never constructs
// one), and Decode∘Encode is exact for every derivable capability,
// including out-of-bounds cursors within the representable window — the
// round-trip property test in encoding_test.go checks this exhaustively.
//
// Metadata word layout (bit 0 least significant):
//
//	[63:52] perms     (12 bits)
//	[51:39] otype     (13 bits)
//	[38:33] exponent  (6 bits)
//	[32:19] B         (14 bits: baseQ mod 2^MantissaWidth)
//	[18: 5] L         (14 bits: length in quanta; ≤ 2^(MantissaWidth-1))
//	[ 4: 1] color     (4 bits; §7.3 composition)
//	[    0] reserved
//
// Bounds reconstruction uses CHERI Concentrate's representable-region
// correction: the base quantum's high bits come from the address quantum's
// high bits, adjusted by comparing both mantissas against the region
// boundary R = B - 2^(MantissaWidth-3). The exponent is chosen (see
// exponent in capability.go) so the length occupies at most half the
// 2^MantissaWidth window, leaving an eighth of a window of slack below the
// base and at least an eighth above the top for out-of-bounds cursors —
// the same envelope representableCursor enforces.

// EncodedSize is the in-memory size of an encoded capability, matching
// GranuleSize.
const EncodedSize = 16

// ErrNotRepresentable reports a capability that does not fit the 128-bit
// encoding.
var ErrNotRepresentable = fmt.Errorf("ca: capability not representable in the 128-bit encoding")

const (
	mwMask = (uint64(1) << MantissaWidth) - 1
	// regionSlack is the representable-region offset below the base, in
	// quanta: an eighth of the 2^MantissaWidth window.
	regionSlack = uint64(1) << (MantissaWidth - 3)
)

// Encode serializes the capability (sans tag) into 16 bytes.
func (c Capability) Encode() ([EncodedSize]byte, error) {
	var out [EncodedSize]byte
	if c.IsNull() {
		binary.LittleEndian.PutUint64(out[0:8], c.addr)
		binary.LittleEndian.PutUint64(out[8:16], 0)
		return out, nil
	}
	exp := exponent(c.top - c.base)
	mask := (uint64(1) << exp) - 1
	if c.base&mask != 0 || c.top&mask != 0 {
		return out, fmt.Errorf("%w: bounds [%#x,%#x) not %d-aligned", ErrNotRepresentable, c.base, c.top, uint64(1)<<exp)
	}
	lenQ := (c.top - c.base) >> exp
	if lenQ > 1<<(MantissaWidth-1) {
		return out, fmt.Errorf("%w: length %d quanta exceeds mantissa", ErrNotRepresentable, lenQ)
	}
	perms, otype, color := c.Perms(), c.OType(), c.Color()
	if perms > 1<<12-1 {
		return out, fmt.Errorf("%w: perms %#x exceed 12 bits", ErrNotRepresentable, perms)
	}
	if otype > 1<<13-1 {
		return out, fmt.Errorf("%w: otype %#x exceeds 13 bits", ErrNotRepresentable, otype)
	}
	if color > 1<<4-1 {
		return out, fmt.Errorf("%w: color %d exceeds 4 bits", ErrNotRepresentable, color)
	}
	// A tagged capability's cursor must sit inside the representable
	// window or the encoding cannot reconstruct the bounds — WithAddr
	// detags before that can happen, so hitting this is a derivation bug.
	// Untagged capabilities encode unconditionally: their bits no longer
	// promise anything (decoding one whose cursor escaped the window
	// yields different bounds, exactly as on hardware).
	if c.Tag() && !representableCursor(c.base, c.top, c.addr) {
		return out, fmt.Errorf("%w: tagged cursor %#x outside window of [%#x,%#x)", ErrNotRepresentable, c.addr, c.base, c.top)
	}
	baseQ := c.base >> exp
	meta := uint64(perms) << 52
	meta |= uint64(otype) << 39
	meta |= uint64(exp) << 33
	meta |= (baseQ & mwMask) << 19
	meta |= (lenQ & mwMask) << 5
	meta |= uint64(color) << 1
	binary.LittleEndian.PutUint64(out[0:8], c.addr)
	binary.LittleEndian.PutUint64(out[8:16], meta)
	return out, nil
}

// Decode reconstructs a capability from its 16-byte encoding plus the
// out-of-band tag bit.
func Decode(b [EncodedSize]byte, tag bool) Capability {
	addr := binary.LittleEndian.Uint64(b[0:8])
	meta := binary.LittleEndian.Uint64(b[8:16])
	if meta == 0 {
		return Null(addr) // an all-zero metadata word is never a valid capability
	}
	exp := uint((meta >> 33) & 0x3f)
	bMant := (meta >> 19) & mwMask
	lenQ := (meta >> 5) & mwMask
	// Perms, otype and color move from the encoding's fields into the
	// Capability's packed word (see capability.go).
	packed := meta>>52 | (meta>>39&0x1fff)<<otypeShift | (meta>>1&0xf)<<colorShift
	if tag {
		packed |= tagBit
	}

	// CHERI-Concentrate region correction: R splits the window an eighth
	// below the base mantissa. Quanta with mantissa ≥ R share the base's
	// window alignment; quanta with mantissa < R sit in the next window.
	a := addr >> exp
	aMid := a & mwMask
	aHigh := a >> MantissaWidth
	r := (bMant - regionSlack) & mwMask
	aUpper := aMid < r // address quantum is past the window wrap
	bUpper := bMant < r
	high := aHigh
	switch {
	case aUpper && !bUpper:
		high-- // address wrapped into the next window; base did not
	case !aUpper && bUpper:
		high++ // base wrapped; address did not
	}
	baseQ := high<<MantissaWidth | bMant
	base := baseQ << exp
	top := base + lenQ<<exp
	return Capability{base: base, top: top, addr: addr, meta: packed}
}
