// Package ca models CHERI architectural capabilities.
//
// A capability is an unforgeable, bounded reference to a region of address
// space. The model reproduces the properties revocation depends on:
//
//   - software can perfectly distinguish valid capabilities (tag set) from
//     plain data (tag clear);
//   - capabilities can only be derived from a superset capability, so bounds
//     and permissions are monotonically non-increasing;
//   - bounds are subject to CHERI-Concentrate-style compression: large
//     regions round outward to a representable alignment, and pointers that
//     stray too far out of bounds lose their tag;
//   - the base of a capability identifies the allocation it was derived
//     from, which is what the revocation bitmap is indexed by.
//
// Capabilities are immutable values: every mutator returns a new Capability.
package ca

import (
	"errors"
	"fmt"
	"math/bits"
)

// GranuleSize is the size in bytes of a capability in memory, and therefore
// the granularity of memory tagging and of the revocation bitmap.
const GranuleSize = 16

// MantissaWidth is the number of significant bits in the compressed length
// encoding, per CHERI Concentrate. Regions longer than 2^MantissaWidth bytes
// are represented with a non-zero exponent and must be aligned accordingly.
const MantissaWidth = 14

// Perms is the permission bit-set carried by a capability. Clearing bits is
// always allowed; setting them is not.
type Perms uint16

const (
	// PermLoad allows data loads through the capability.
	PermLoad Perms = 1 << iota
	// PermStore allows data stores through the capability.
	PermStore
	// PermLoadCap allows loading capabilities (tagged values) through the
	// capability.
	PermLoadCap
	// PermStoreCap allows storing capabilities through the capability.
	PermStoreCap
	// PermExecute allows instruction fetch through the capability.
	PermExecute
	// PermGlobal marks a capability that may be stored anywhere; non-global
	// capabilities may only be stored via PermStoreLocalCap authority.
	PermGlobal
	// PermSeal allows sealing other capabilities with this one's address as
	// the object type.
	PermSeal
	// PermUnseal allows unsealing capabilities sealed with this one's
	// address as the object type.
	PermUnseal
	// PermPaint allows painting the revocation bitmap region corresponding
	// to this capability's bounds. Granted to allocators over their heaps.
	PermPaint
	// PermRecolor allows changing the version color of memory within
	// bounds (the §7.3 memory-coloring composition).
	PermRecolor
)

// PermsData is the permission set for ordinary read-write data access.
const PermsData = PermLoad | PermStore | PermLoadCap | PermStoreCap | PermGlobal

// PermsAll is every permission; held only by root capabilities.
const PermsAll = PermLoad | PermStore | PermLoadCap | PermStoreCap |
	PermExecute | PermGlobal | PermSeal | PermUnseal | PermPaint | PermRecolor

// String renders the permission set in the conventional compact form.
func (p Perms) String() string {
	s := make([]byte, 0, 10)
	add := func(bit Perms, c byte) {
		if p&bit != 0 {
			s = append(s, c)
		}
	}
	add(PermLoad, 'r')
	add(PermStore, 'w')
	add(PermLoadCap, 'R')
	add(PermStoreCap, 'W')
	add(PermExecute, 'x')
	add(PermGlobal, 'g')
	add(PermSeal, 's')
	add(PermUnseal, 'u')
	add(PermPaint, 'p')
	add(PermRecolor, 'c')
	if len(s) == 0 {
		return "-"
	}
	return string(s)
}

// Errors returned by derivation operations.
var (
	ErrTagCleared     = errors.New("ca: capability tag is clear")
	ErrSealed         = errors.New("ca: capability is sealed")
	ErrNotSealed      = errors.New("ca: capability is not sealed")
	ErrWrongOType     = errors.New("ca: object type mismatch")
	ErrExceedsBounds  = errors.New("ca: requested bounds exceed capability bounds")
	ErrPermEscalation = errors.New("ca: requested permissions exceed capability permissions")
	ErrLengthOverflow = errors.New("ca: base+length overflows the address space")
)

// Capability is a CHERI capability value. The zero value is an untagged
// null capability.
//
// It is four machine words: the bounds, the cursor, and one meta word that
// packs the permissions, object type, version color and tag. The simulator
// copies a capability on every load, store and derivation, and the Go
// compiler keeps a struct in registers only when it has at most four fields
// in at most four words; a wider struct goes through the stack on every
// copy.
type Capability struct {
	base uint64
	top  uint64 // exclusive; may be 0 with base 0 for null
	addr uint64
	meta uint64 // see the layout below
}

// Layout of Capability.meta (bit 0 least significant). Each field keeps the
// full width of its accessor, wider than the 128-bit encoding's fields, so
// that Encode can reject values the encoding cannot hold.
//
//	[   56] tag
//	[55:48] color (§7.3 composition; 0 in plain CHERI mode)
//	[47:16] otype (0 when unsealed)
//	[15: 0] perms
//
// Bits 57–63 stay zero, and every mutator rewrites only its own field, so
// == compares capabilities field by field.
const (
	otypeShift = 16
	colorShift = 48
	otypeMask  = uint64(1<<32-1) << otypeShift
	colorMask  = uint64(1<<8-1) << colorShift
	tagBit     = uint64(1) << 56
)

// Null returns the canonical untagged null capability carrying the given
// address as plain data. Loading integer data through the model produces
// Null values.
func Null(addr uint64) Capability {
	return Capability{addr: addr}
}

// NewRoot conjures a root capability for [base, base+length) with the given
// permissions. Only the machine (at reset) and the kernel (when mapping
// memory) may conjure capabilities; everything else must derive.
// The bounds are rounded outward to the nearest representable bounds, as a
// hardware root register would hold.
func NewRoot(base, length uint64, perms Perms) Capability {
	b, t := RepresentableBounds(base, length)
	return Capability{base: b, top: t, addr: base, meta: uint64(perms) | tagBit}
}

// Tag reports whether the capability is valid (architecturally tagged).
func (c Capability) Tag() bool { return c.meta&tagBit != 0 }

// Base returns the inclusive lower bound. The revocation bitmap is indexed
// by Base, not Addr, because CHERI guarantees the base cannot be moved
// without destroying the capability.
func (c Capability) Base() uint64 { return c.base }

// Top returns the exclusive upper bound.
func (c Capability) Top() uint64 { return c.top }

// Len returns the length of the bounds region.
func (c Capability) Len() uint64 { return c.top - c.base }

// Addr returns the current address (cursor) of the capability.
func (c Capability) Addr() uint64 { return c.addr }

// Perms returns the permission bits.
func (c Capability) Perms() Perms { return Perms(c.meta) }

// Color returns the version color (§7.3 memory-coloring composition).
func (c Capability) Color() uint8 { return uint8(c.meta >> colorShift) }

// Sealed reports whether the capability is sealed.
func (c Capability) Sealed() bool { return c.meta&otypeMask != 0 }

// OType returns the object type, or zero if unsealed.
func (c Capability) OType() uint32 { return uint32(c.meta >> otypeShift) }

// IsNull reports whether this is (tag-free) null-derived data.
func (c Capability) IsNull() bool { return !c.Tag() && c.base == 0 && c.top == 0 }

// String renders the capability in a CheriBSD-like format.
func (c Capability) String() string {
	t := 'v'
	if !c.Tag() {
		t = 'i'
	}
	sealed := ""
	if c.Sealed() {
		sealed = fmt.Sprintf(" sealed(%d)", c.OType())
	}
	return fmt.Sprintf("cap{%c 0x%x [0x%x,0x%x) %s c%d%s}", t, c.addr, c.base, c.top, c.Perms(), c.Color(), sealed)
}

// InBounds reports whether an access of size bytes at the current address
// lies entirely within bounds.
func (c Capability) InBounds(size uint64) bool {
	return c.addr >= c.base && size <= c.top-c.addr && c.addr+size >= c.addr
}

// HasPerms reports whether every permission in want is present.
func (c Capability) HasPerms(want Perms) bool { return c.Perms()&want == want }

// CheckAccess validates an access of size bytes at the current address
// requiring perms. It returns a descriptive error on failure, nil otherwise.
func (c Capability) CheckAccess(size uint64, want Perms) error {
	switch {
	case !c.Tag():
		return ErrTagCleared
	case c.Sealed():
		return ErrSealed
	case !c.HasPerms(want):
		return fmt.Errorf("%w: have %s want %s", ErrPermEscalation, c.Perms(), want)
	case !c.InBounds(size):
		return fmt.Errorf("ca: access [0x%x,+%d) outside bounds [0x%x,0x%x)", c.addr, size, c.base, c.top)
	}
	return nil
}

// ClearTag returns the capability with its tag cleared. This is what
// revocation does to stale capabilities found in memory.
func (c Capability) ClearTag() Capability {
	c.meta &^= tagBit
	return c
}

// ClearPerms returns the capability with the given permissions removed.
// Removing permissions is always monotone and requires no checks beyond the
// tag being set.
func (c Capability) ClearPerms(drop Perms) Capability {
	c.meta &^= uint64(drop)
	return c
}

// WithPerms returns the capability restricted to exactly keep ∩ current.
func (c Capability) WithPerms(keep Perms) Capability {
	c.meta &^= uint64(^keep)
	return c
}

// WithColor returns the capability carrying the given version color. Colors
// live under the tag's integrity protection (§7.3): deriving a new color
// requires PermRecolor.
func (c Capability) WithColor(color uint8) (Capability, error) {
	if !c.Tag() {
		return c.ClearTag(), ErrTagCleared
	}
	if !c.HasPerms(PermRecolor) {
		return c.ClearTag(), ErrPermEscalation
	}
	c.meta = c.meta&^colorMask | uint64(color)<<colorShift
	return c, nil
}

// WithAddr returns the capability with its cursor moved to addr. Moving far
// enough outside bounds that the compressed encoding can no longer represent
// the bounds clears the tag, per CHERI Concentrate.
func (c Capability) WithAddr(addr uint64) Capability {
	c.addr = addr
	if c.Tag() && !representableCursor(c.base, c.top, addr) {
		c.meta &^= tagBit
	}
	return c
}

// AddAddr returns the capability with its cursor advanced by delta (which
// may be negative via two's complement wrap, as in hardware).
func (c Capability) AddAddr(delta uint64) Capability {
	return c.WithAddr(c.addr + delta)
}

// SetBounds derives a capability whose bounds are [addr, addr+length),
// rounded outward to representable bounds. Per the architecture, if the
// rounded bounds would escape the parent's bounds the derivation fails.
// The cursor is placed at addr.
func (c Capability) SetBounds(length uint64) (Capability, error) {
	if !c.Tag() {
		return c.ClearTag(), ErrTagCleared
	}
	if c.Sealed() {
		return c.ClearTag(), ErrSealed
	}
	base := c.addr
	if base+length < base {
		return c.ClearTag(), ErrLengthOverflow
	}
	nb, nt := RepresentableBounds(base, length)
	if nb < c.base || nt > c.top {
		return c.ClearTag(), fmt.Errorf("%w: [0x%x,0x%x) rounds to [0x%x,0x%x) outside [0x%x,0x%x)",
			ErrExceedsBounds, base, base+length, nb, nt, c.base, c.top)
	}
	c.base, c.top, c.addr = nb, nt, base
	return c, nil
}

// SetBoundsExact derives a capability with exactly [addr, addr+length)
// bounds, failing if those bounds are not precisely representable. Heap
// allocators use this: they pad requests with RepresentableLength so that
// returned objects always have exact bounds.
func (c Capability) SetBoundsExact(length uint64) (Capability, error) {
	d, err := c.SetBounds(length)
	if err != nil {
		return d, err
	}
	if d.base != c.addr || d.top != c.addr+length {
		return c.ClearTag(), fmt.Errorf("ca: bounds [0x%x,+%d) not exactly representable", c.addr, length)
	}
	return d, nil
}

// Seal returns the capability sealed with the sealer's address as otype.
// Sealed capabilities are immutable and non-dereferenceable until unsealed.
func (c Capability) Seal(sealer Capability) (Capability, error) {
	if !c.Tag() || !sealer.Tag() {
		return c.ClearTag(), ErrTagCleared
	}
	if c.Sealed() {
		return c.ClearTag(), ErrSealed
	}
	if !sealer.HasPerms(PermSeal) || !sealer.InBounds(1) {
		return c.ClearTag(), ErrPermEscalation
	}
	if sealer.addr == 0 || sealer.addr > 1<<13-1 {
		// Object types must fit the 13-bit field of the 128-bit encoding.
		return c.ClearTag(), fmt.Errorf("ca: otype 0x%x out of range", sealer.addr)
	}
	c.meta |= sealer.addr << otypeShift // the otype field is zero: c is unsealed
	return c, nil
}

// Unseal returns the capability unsealed, verifying the unsealer authorizes
// the object type.
func (c Capability) Unseal(unsealer Capability) (Capability, error) {
	if !c.Tag() || !unsealer.Tag() {
		return c.ClearTag(), ErrTagCleared
	}
	if !c.Sealed() {
		return c.ClearTag(), ErrNotSealed
	}
	if !unsealer.HasPerms(PermUnseal) || !unsealer.InBounds(1) {
		return c.ClearTag(), ErrPermEscalation
	}
	if uint32(unsealer.addr) != c.OType() {
		return c.ClearTag(), ErrWrongOType
	}
	c.meta &^= otypeMask
	return c, nil
}

// Subset reports whether c's bounds and permissions are a subset of p's.
// This is the implicit provenance relation global revocation relies on
// (§2.2): a heap allocator holding p can demonstrate its progenitor claim
// over any c with Subset(c, p).
func (c Capability) Subset(p Capability) bool {
	return c.base >= p.base && c.top <= p.top && p.HasPerms(c.Perms())
}

// --- CHERI-Concentrate-style bounds compression -------------------------

// exponent returns the CC exponent needed to represent a region of the
// given length: the smallest E such that the length in quanta fits in
// MantissaWidth-1 bits. Keeping the length to half the 2^MantissaWidth
// window leaves representable-space slack around the bounds for
// out-of-bounds cursors, as CHERI Concentrate does.
func exponent(length uint64) uint {
	if length <= 1<<(MantissaWidth-1) {
		return 0
	}
	return uint(bits.Len64(length-1)) - (MantissaWidth - 1)
}

// RepresentableBounds rounds [base, base+length) outward to bounds that the
// compressed encoding can hold exactly: base rounds down and top rounds up
// to 2^E alignment. Hardware holds the top in a 65-bit internal value; this
// model's exclusive top is a uint64, so rounding that would carry past the
// top of the address space saturates at ^uint64(0) instead of wrapping
// below the base. Saturated bounds are inexact by construction, so exact
// derivations over them fail (SetBoundsExact) rather than produce a
// capability whose top lies below its base.
func RepresentableBounds(base, length uint64) (nbase, ntop uint64) {
	e := exponent(length)
	sum := base + length
	if sum < base { // request runs past the address space: saturate
		sum = ^uint64(0)
	}
	if e == 0 {
		return base, sum
	}
	mask := (uint64(1) << e) - 1
	nbase = base &^ mask
	ntop = roundUpSat(sum, mask)
	// Rounding may have grown the region past the current exponent's reach;
	// at most one extra iteration is needed.
	if e2 := exponent(ntop - nbase); e2 > e {
		mask = (uint64(1) << e2) - 1
		nbase = base &^ mask
		ntop = roundUpSat(sum, mask)
	}
	return nbase, ntop
}

// roundUpSat rounds v up to the next multiple of mask+1, saturating at the
// top of the address space instead of wrapping.
func roundUpSat(v, mask uint64) uint64 {
	r := (v + mask) &^ mask
	if r < v {
		return ^uint64(0)
	}
	return r
}

// RepresentableLength rounds length up to the next value for which bounds
// starting at a RepresentableAlign-aligned base are exact. Allocators pad
// allocation sizes with this so returned capabilities never leak slack.
// Lengths whose padding would exceed 2^64 saturate at ^uint64(0) — the
// padded request then fails to allocate instead of silently shrinking.
func RepresentableLength(length uint64) uint64 {
	e := exponent(length)
	if e == 0 {
		return length
	}
	r := roundUpSat(length, (uint64(1)<<e)-1)
	if e2 := exponent(r); e2 > e {
		r = roundUpSat(length, (uint64(1)<<e2)-1)
	}
	return r
}

// RepresentableAlign returns the alignment a base must have for bounds of
// the given length to be exact.
func RepresentableAlign(length uint64) uint64 {
	return uint64(1) << exponent(length)
}

// representableCursor reports whether addr remains inside the
// representable window of bounds [base, top): one eighth of the
// 2^MantissaWidth-quanta window on either side, matching the region
// boundary the 128-bit encoding (encoding.go) uses to reconstruct bounds.
func representableCursor(base, top, addr uint64) bool {
	length := top - base
	e := exponent(length)
	slack := uint64(1) << (e + MantissaWidth - 3)
	lo := base - slack
	if lo > base { // underflow
		lo = 0
	}
	hi := top + slack
	if hi < top { // overflow
		hi = ^uint64(0)
	}
	return addr >= lo && addr < hi
}
