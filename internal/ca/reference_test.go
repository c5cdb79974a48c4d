package ca

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refCap is the seven-field capability this package kept before its
// fields were packed into four words. It is the reference of the
// differential below: every derivation must leave the same observable
// capability in both representations. Its methods are the previous ones,
// with the same bounds math (RepresentableBounds, representableCursor) and
// the same errors.
type refCap struct {
	base  uint64
	top   uint64
	addr  uint64
	perms Perms
	otype uint32
	color uint8
	tag   bool
}

func refNewRoot(base, length uint64, perms Perms) refCap {
	b, t := RepresentableBounds(base, length)
	return refCap{base: b, top: t, addr: base, perms: perms, tag: true}
}

func (c refCap) isNull() bool { return !c.tag && c.base == 0 && c.top == 0 }

func (c refCap) String() string {
	t := 'v'
	if !c.tag {
		t = 'i'
	}
	sealed := ""
	if c.otype != 0 {
		sealed = fmt.Sprintf(" sealed(%d)", c.otype)
	}
	return fmt.Sprintf("cap{%c 0x%x [0x%x,0x%x) %s c%d%s}", t, c.addr, c.base, c.top, c.perms, c.color, sealed)
}

func (c refCap) inBounds(size uint64) bool {
	return c.addr >= c.base && size <= c.top-c.addr && c.addr+size >= c.addr
}

func (c refCap) hasPerms(want Perms) bool { return c.perms&want == want }

func (c refCap) checkAccess(size uint64, want Perms) error {
	switch {
	case !c.tag:
		return ErrTagCleared
	case c.otype != 0:
		return ErrSealed
	case !c.hasPerms(want):
		return fmt.Errorf("%w: have %s want %s", ErrPermEscalation, c.perms, want)
	case !c.inBounds(size):
		return fmt.Errorf("ca: access [0x%x,+%d) outside bounds [0x%x,0x%x)", c.addr, size, c.base, c.top)
	}
	return nil
}

func (c refCap) clearTag() refCap {
	c.tag = false
	return c
}

func (c refCap) clearPerms(drop Perms) refCap {
	c.perms &^= drop
	return c
}

func (c refCap) withPerms(keep Perms) refCap {
	c.perms &= keep
	return c
}

func (c refCap) withColor(color uint8) (refCap, error) {
	if !c.tag {
		return c.clearTag(), ErrTagCleared
	}
	if !c.hasPerms(PermRecolor) {
		return c.clearTag(), ErrPermEscalation
	}
	c.color = color
	return c, nil
}

func (c refCap) withAddr(addr uint64) refCap {
	c.addr = addr
	if c.tag && !representableCursor(c.base, c.top, addr) {
		c.tag = false
	}
	return c
}

func (c refCap) addAddr(delta uint64) refCap { return c.withAddr(c.addr + delta) }

func (c refCap) setBounds(length uint64) (refCap, error) {
	if !c.tag {
		return c.clearTag(), ErrTagCleared
	}
	if c.otype != 0 {
		return c.clearTag(), ErrSealed
	}
	base := c.addr
	if base+length < base {
		return c.clearTag(), ErrLengthOverflow
	}
	nb, nt := RepresentableBounds(base, length)
	if nb < c.base || nt > c.top {
		return c.clearTag(), fmt.Errorf("%w: [0x%x,0x%x) rounds to [0x%x,0x%x) outside [0x%x,0x%x)",
			ErrExceedsBounds, base, base+length, nb, nt, c.base, c.top)
	}
	c.base, c.top, c.addr = nb, nt, base
	return c, nil
}

func (c refCap) setBoundsExact(length uint64) (refCap, error) {
	d, err := c.setBounds(length)
	if err != nil {
		return d, err
	}
	if d.base != c.addr || d.top != c.addr+length {
		return c.clearTag(), fmt.Errorf("ca: bounds [0x%x,+%d) not exactly representable", c.addr, length)
	}
	return d, nil
}

func (c refCap) seal(sealer refCap) (refCap, error) {
	if !c.tag || !sealer.tag {
		return c.clearTag(), ErrTagCleared
	}
	if c.otype != 0 {
		return c.clearTag(), ErrSealed
	}
	if !sealer.hasPerms(PermSeal) || !sealer.inBounds(1) {
		return c.clearTag(), ErrPermEscalation
	}
	if sealer.addr == 0 || sealer.addr > 1<<13-1 {
		return c.clearTag(), fmt.Errorf("ca: otype 0x%x out of range", sealer.addr)
	}
	c.otype = uint32(sealer.addr)
	return c, nil
}

func (c refCap) unseal(unsealer refCap) (refCap, error) {
	if !c.tag || !unsealer.tag {
		return c.clearTag(), ErrTagCleared
	}
	if c.otype == 0 {
		return c.clearTag(), ErrNotSealed
	}
	if !unsealer.hasPerms(PermUnseal) || !unsealer.inBounds(1) {
		return c.clearTag(), ErrPermEscalation
	}
	if uint32(unsealer.addr) != c.otype {
		return c.clearTag(), ErrWrongOType
	}
	c.otype = 0
	return c, nil
}

func (c refCap) subset(p refCap) bool {
	return c.base >= p.base && c.top <= p.top && p.perms&c.perms == c.perms
}

func (c refCap) encode() ([EncodedSize]byte, error) {
	var out [EncodedSize]byte
	if c.isNull() {
		binary.LittleEndian.PutUint64(out[0:8], c.addr)
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
	if c.perms > 1<<12-1 {
		return out, fmt.Errorf("%w: perms %#x exceed 12 bits", ErrNotRepresentable, c.perms)
	}
	if c.otype > 1<<13-1 {
		return out, fmt.Errorf("%w: otype %#x exceeds 13 bits", ErrNotRepresentable, c.otype)
	}
	if c.color > 1<<4-1 {
		return out, fmt.Errorf("%w: color %d exceeds 4 bits", ErrNotRepresentable, c.color)
	}
	if c.tag && !representableCursor(c.base, c.top, c.addr) {
		return out, fmt.Errorf("%w: tagged cursor %#x outside window of [%#x,%#x)", ErrNotRepresentable, c.addr, c.base, c.top)
	}
	baseQ := c.base >> exp
	meta := uint64(c.perms) << 52
	meta |= uint64(c.otype) << 39
	meta |= uint64(exp) << 33
	meta |= (baseQ & mwMask) << 19
	meta |= (lenQ & mwMask) << 5
	meta |= uint64(c.color) << 1
	binary.LittleEndian.PutUint64(out[0:8], c.addr)
	binary.LittleEndian.PutUint64(out[8:16], meta)
	return out, nil
}

func refDecode(b [EncodedSize]byte, tag bool) refCap {
	addr := binary.LittleEndian.Uint64(b[0:8])
	meta := binary.LittleEndian.Uint64(b[8:16])
	if meta == 0 {
		return refCap{addr: addr}
	}
	exp := uint((meta >> 33) & 0x3f)
	bMant := (meta >> 19) & mwMask
	lenQ := (meta >> 5) & mwMask
	a := addr >> exp
	aMid := a & mwMask
	aHigh := a >> MantissaWidth
	r := (bMant - regionSlack) & mwMask
	aUpper := aMid < r
	bUpper := bMant < r
	high := aHigh
	switch {
	case aUpper && !bUpper:
		high--
	case !aUpper && bUpper:
		high++
	}
	base := (high<<MantissaWidth | bMant) << exp
	return refCap{
		base:  base,
		top:   base + lenQ<<exp,
		addr:  addr,
		perms: Perms(meta >> 52),
		otype: uint32((meta >> 39) & 0x1fff),
		color: uint8((meta >> 1) & 0xf),
		tag:   tag,
	}
}

// capView is everything the package's accessors report about one
// capability. Perms stay a number: Perms.String omits bits above PermsAll.
type capView struct {
	Tag, Sealed, IsNull  bool
	Base, Top, Len, Addr uint64
	Perms                uint16
	OType                uint32
	Color                uint8
	String               string
	Encoded              [EncodedSize]byte
	EncodeErr            errView
	InBounds, HasPerms   []bool
	CheckAccess          []errView
}

// Probes applied to every value: access sizes and wanted permissions.
var (
	probeSizes = []uint64{0, 1, 1 << 20}
	probePerms = []Perms{PermLoad, PermStore | PermStoreCap, PermsAll, 1 << 15}
)

// sentinels lists the errors a caller can match with errors.Is.
var sentinels = []error{ErrTagCleared, ErrSealed, ErrNotSealed, ErrWrongOType,
	ErrExceedsBounds, ErrPermEscalation, ErrLengthOverflow, ErrNotRepresentable}

// errView is an error as a caller sees it: its message, and in bit i
// whether errors.Is matches sentinels[i].
type errView struct {
	Msg string
	Is  uint8
}

func viewErr(err error) errView {
	if err == nil {
		return errView{}
	}
	v := errView{Msg: err.Error()}
	for i, e := range sentinels {
		if errors.Is(err, e) {
			v.Is |= 1 << i
		}
	}
	return v
}

func viewOf(c Capability) capView {
	v := capView{
		Tag: c.Tag(), Sealed: c.Sealed(), IsNull: c.IsNull(),
		Base: c.Base(), Top: c.Top(), Len: c.Len(), Addr: c.Addr(),
		Perms: uint16(c.Perms()), OType: c.OType(), Color: c.Color(),
		String: c.String(),
	}
	var err error
	v.Encoded, err = c.Encode()
	v.EncodeErr = viewErr(err)
	for _, size := range probeSizes {
		v.InBounds = append(v.InBounds, c.InBounds(size))
		for _, want := range probePerms {
			v.CheckAccess = append(v.CheckAccess, viewErr(c.CheckAccess(size, want)))
		}
	}
	for _, want := range probePerms {
		v.HasPerms = append(v.HasPerms, c.HasPerms(want))
	}
	return v
}

func refViewOf(c refCap) capView {
	v := capView{
		Tag: c.tag, Sealed: c.otype != 0, IsNull: c.isNull(),
		Base: c.base, Top: c.top, Len: c.top - c.base, Addr: c.addr,
		Perms: uint16(c.perms), OType: c.otype, Color: c.color,
		String: c.String(),
	}
	var err error
	v.Encoded, err = c.encode()
	v.EncodeErr = viewErr(err)
	for _, size := range probeSizes {
		v.InBounds = append(v.InBounds, c.inBounds(size))
		for _, want := range probePerms {
			v.CheckAccess = append(v.CheckAccess, viewErr(c.checkAccess(size, want)))
		}
	}
	for _, want := range probePerms {
		v.HasPerms = append(v.HasPerms, c.hasPerms(want))
	}
	return v
}

// capProgram decodes a byte string into a sequence of derivations. Reads
// past the end return zeros, so every input is a valid program.
type capProgram struct{ b []byte }

func (p *capProgram) more() bool { return len(p.b) > 0 }

func (p *capProgram) u8() uint8 {
	if len(p.b) == 0 {
		return 0
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v
}

func (p *capProgram) u16() uint16 { return uint16(p.u8()) | uint16(p.u8())<<8 }

func (p *capProgram) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p.u8()) << (8 * i)
	}
	return v
}

// addr decodes an address: any 64-bit value, a value in the object-type
// range, or a shifted offset above or below one of near's bounds, its
// cursor or the top of the address space, which lands inside, at the
// edge of or outside the representable window.
func (p *capProgram) addr(near refCap) uint64 {
	sel := p.u8()
	switch {
	case sel < 32:
		return p.u64()
	case sel < 80:
		return uint64(p.u16()) % (1<<13 + 1)
	}
	anchor := [...]uint64{near.base, near.top, near.addr, ^uint64(0)}[sel%4]
	off := uint64(p.u8()) << (p.u8() % 64)
	if sel&4 != 0 {
		return anchor - off
	}
	return anchor + off
}

// length decodes a bounds length: any 64-bit value or a shifted 16-bit one.
func (p *capProgram) length() uint64 {
	if p.u8() < 32 {
		return p.u64()
	}
	return uint64(p.u16()) << (p.u8() % 64)
}

// capPair is one value derived in both representations.
type capPair struct {
	c Capability
	r refCap
}

const (
	maxCapSteps = 64
	maxCapSlots = 12
)

// runCapProgram runs prog's derivations on Capability and refCap side by
// side and returns the first difference: in a result's accessors, String,
// Encode bytes or error, InBounds, HasPerms or CheckAccess, in a
// derivation's error (message and errors.Is), or in == or Subset between
// any two values derived so far.
func runCapProgram(prog []byte) error {
	p := &capProgram{b: prog}
	// Slot 0, never evicted, is a root over every object type, its
	// cursor at object type 1: a ready sealer and unsealer.
	slots := []capPair{{NewRoot(1, 1<<13-1, PermsAll), refNewRoot(1, 1<<13-1, PermsAll)}}
	var trace []string
	for step := 0; p.more() && step < maxCapSteps; step++ {
		src := slots[int(p.u8())%len(slots)]
		other := slots[int(p.u8())%len(slots)]
		var next capPair
		var err, refErr error
		var name string
		switch p.u8() % 13 {
		case 0:
			base, length, perms := p.addr(src.r), p.length(), Perms(p.u16())
			name = fmt.Sprintf("NewRoot(%#x, %#x, %#x)", base, length, uint16(perms))
			next = capPair{NewRoot(base, length, perms), refNewRoot(base, length, perms)}
		case 1:
			a := p.addr(src.r)
			name = fmt.Sprintf("WithAddr(%#x)", a)
			next = capPair{src.c.WithAddr(a), src.r.withAddr(a)}
		case 2:
			d := p.addr(src.r) - src.r.addr
			name = fmt.Sprintf("AddAddr(%#x)", d)
			next = capPair{src.c.AddAddr(d), src.r.addAddr(d)}
		case 3:
			l := p.length()
			name = fmt.Sprintf("SetBounds(%#x)", l)
			next.c, err = src.c.SetBounds(l)
			next.r, refErr = src.r.setBounds(l)
		case 4:
			l := p.length()
			name = fmt.Sprintf("SetBoundsExact(%#x)", l)
			next.c, err = src.c.SetBoundsExact(l)
			next.r, refErr = src.r.setBoundsExact(l)
		case 5:
			drop := Perms(p.u16())
			name = fmt.Sprintf("ClearPerms(%#x)", uint16(drop))
			next = capPair{src.c.ClearPerms(drop), src.r.clearPerms(drop)}
		case 6:
			keep := Perms(p.u16())
			name = fmt.Sprintf("WithPerms(%#x)", uint16(keep))
			next = capPair{src.c.WithPerms(keep), src.r.withPerms(keep)}
		case 7:
			col := p.u8()
			name = fmt.Sprintf("WithColor(%d)", col)
			next.c, err = src.c.WithColor(col)
			next.r, refErr = src.r.withColor(col)
		case 8:
			name = fmt.Sprintf("Seal(%v)", other.r)
			next.c, err = src.c.Seal(other.c)
			next.r, refErr = src.r.seal(other.r)
		case 9:
			name = fmt.Sprintf("Unseal(%v)", other.r)
			next.c, err = src.c.Unseal(other.c)
			next.r, refErr = src.r.unseal(other.r)
		case 10:
			name = "ClearTag()"
			next = capPair{src.c.ClearTag(), src.r.clearTag()}
		case 11:
			var b [EncodedSize]byte
			binary.LittleEndian.PutUint64(b[0:8], p.addr(src.r))
			binary.LittleEndian.PutUint64(b[8:16], p.u64())
			tag := p.u8()&1 != 0
			name = fmt.Sprintf("Decode(%x, %v)", b, tag)
			next = capPair{Decode(b, tag), refDecode(b, tag)}
		default:
			// Decode∘Encode; an untagged value whose cursor left the
			// window decodes to other bounds, in both representations.
			b, encErr := src.c.Encode()
			if encErr != nil {
				continue
			}
			name = fmt.Sprintf("Decode(Encode(%v))", src.r)
			next = capPair{Decode(b, src.c.Tag()), refDecode(b, src.r.tag)}
		}
		trace = append(trace, fmt.Sprintf("%v.%s", src.r, name))
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d: %s\nsteps:\n  %s", step, fmt.Sprintf(format, args...), strings.Join(trace, "\n  "))
		}
		if got, want := viewErr(err), viewErr(refErr); got != want {
			return fail("error %+v, reference %+v", got, want)
		}
		if got, want := viewOf(next.c), refViewOf(next.r); !reflect.DeepEqual(got, want) {
			return fail("value differs from the reference\n got %+v\nwant %+v", got, want)
		}
		// Values never change, so only pairs with the new one are new.
		for i, old := range append(slots, next) {
			if (next.c == old.c) != (next.r == old.r) {
				return fail("new value and value %d: == is %v, reference %v", i, next.c == old.c, next.r == old.r)
			}
			if next.c.Subset(old.c) != next.r.subset(old.r) || old.c.Subset(next.c) != old.r.subset(next.r) {
				return fail("new value and value %d: Subset differs from the reference", i)
			}
		}
		slots = append(slots, next)
		if len(slots) > maxCapSlots {
			slots = append(slots[:1], slots[2:]...)
		}
	}
	return nil
}

// TestCapabilityMatchesReference runs seeded random derivation programs
// against the seven-field reference.
func TestCapabilityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		prog := make([]byte, 64+rng.Intn(448))
		rng.Read(prog)
		if err := runCapProgram(prog); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
}

// FuzzCapability searches for derivation programs on which Capability and
// the seven-field reference differ.
func FuzzCapability(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 256)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runCapProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}
