package ca

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestCapabilityFitsRegisters pins the layout the simulator's speed rests
// on. The Go compiler keeps a struct in registers, as an argument, a
// result or a local, only when it has at most four fields in at most four
// machine words (cmd/compile's SSA limit); a wider one goes through the
// stack on every copy, and a capability is copied on every load, store
// and derivation.
func TestCapabilityFitsRegisters(t *testing.T) {
	if n := reflect.TypeOf(Capability{}).NumField(); n > 4 {
		t.Errorf("Capability has %d fields, want at most 4", n)
	}
	if size := unsafe.Sizeof(Capability{}); size != 32 {
		t.Errorf("Capability is %d bytes, want 32", size)
	}
}

func TestNullIsUntagged(t *testing.T) {
	n := Null(0x1234)
	if n.Tag() {
		t.Fatal("null capability must be untagged")
	}
	if n.Addr() != 0x1234 {
		t.Fatalf("addr = %#x, want 0x1234", n.Addr())
	}
	if !n.IsNull() {
		t.Fatal("IsNull() = false")
	}
}

func TestNewRootSmallBoundsExact(t *testing.T) {
	c := NewRoot(0x1000, 4096, PermsData)
	if !c.Tag() {
		t.Fatal("root must be tagged")
	}
	if c.Base() != 0x1000 || c.Top() != 0x2000 {
		t.Fatalf("bounds [%#x,%#x), want [0x1000,0x2000)", c.Base(), c.Top())
	}
	if c.Len() != 4096 {
		t.Fatalf("len = %d, want 4096", c.Len())
	}
}

func TestSetBoundsMonotone(t *testing.T) {
	root := NewRoot(0, 1<<30, PermsAll)
	obj, err := root.WithAddr(0x4000).SetBounds(256)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Base() != 0x4000 || obj.Top() != 0x4100 {
		t.Fatalf("bounds [%#x,%#x)", obj.Base(), obj.Top())
	}
	// Widening must fail.
	if _, err := obj.WithAddr(0x4000).SetBounds(512); err == nil {
		t.Fatal("widening SetBounds succeeded")
	}
	// Escaping below base must fail.
	if _, err := obj.WithAddr(0x3ff0).SetBounds(16); err == nil {
		t.Fatal("SetBounds below base succeeded")
	}
}

func TestSetBoundsOnUntagged(t *testing.T) {
	if _, err := Null(0).SetBounds(16); err != ErrTagCleared {
		t.Fatalf("err = %v, want ErrTagCleared", err)
	}
}

func TestSetBoundsExactRejectsUnrepresentable(t *testing.T) {
	root := NewRoot(0, 1<<40, PermsAll)
	// A large odd length at an odd base is not exactly representable.
	length := uint64(1<<MantissaWidth) + 3
	if _, err := root.WithAddr(1).SetBoundsExact(length); err == nil {
		t.Fatal("unrepresentable exact bounds accepted")
	}
	// Padding the request per RepresentableLength and aligning the base
	// must always succeed.
	pad := RepresentableLength(length)
	align := RepresentableAlign(pad)
	base := (uint64(0x123457) + align - 1) &^ (align - 1)
	got, err := root.WithAddr(base).SetBoundsExact(pad)
	if err != nil {
		t.Fatalf("padded exact bounds rejected: %v", err)
	}
	if got.Base() != base || got.Len() != pad {
		t.Fatalf("bounds [%#x,+%d), want [%#x,+%d)", got.Base(), got.Len(), base, pad)
	}
}

func TestPermsMonotone(t *testing.T) {
	c := NewRoot(0, 4096, PermsData)
	d := c.ClearPerms(PermStore | PermStoreCap)
	if d.HasPerms(PermStore) || d.HasPerms(PermStoreCap) {
		t.Fatal("cleared perms still present")
	}
	if !d.HasPerms(PermLoad) {
		t.Fatal("unrelated perm lost")
	}
	if err := d.CheckAccess(8, PermStore); err == nil {
		t.Fatal("store through read-only capability allowed")
	}
}

func TestCheckAccess(t *testing.T) {
	c := NewRoot(0x1000, 64, PermsData)
	if err := c.CheckAccess(64, PermLoad); err != nil {
		t.Fatalf("in-bounds load rejected: %v", err)
	}
	if err := c.CheckAccess(65, PermLoad); err == nil {
		t.Fatal("oversized load allowed")
	}
	if err := c.AddAddr(60).CheckAccess(8, PermLoad); err == nil {
		t.Fatal("straddling load allowed")
	}
	if err := c.ClearTag().CheckAccess(8, PermLoad); err != ErrTagCleared {
		t.Fatalf("untagged access err = %v", err)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	root := NewRoot(0, 1<<20, PermsAll)
	sealer := root.WithAddr(42)
	obj := NewRoot(0x2000, 128, PermsData)
	sealed, err := obj.Seal(sealer)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed.Sealed() || sealed.OType() != 42 {
		t.Fatalf("sealed = %v otype = %d", sealed.Sealed(), sealed.OType())
	}
	if err := sealed.CheckAccess(8, PermLoad); err == nil {
		t.Fatal("dereference of sealed capability allowed")
	}
	if _, err := sealed.SetBounds(8); err == nil {
		t.Fatal("SetBounds on sealed capability allowed")
	}
	wrong := root.WithAddr(43)
	if _, err := sealed.Unseal(wrong); err != ErrWrongOType {
		t.Fatalf("unseal with wrong otype err = %v", err)
	}
	back, err := sealed.Unseal(sealer.WithPerms(PermUnseal | PermsAll))
	if err != nil {
		t.Fatal(err)
	}
	if back.Sealed() {
		t.Fatal("unsealed capability still sealed")
	}
	if back.Base() != obj.Base() || back.Top() != obj.Top() {
		t.Fatal("unseal changed bounds")
	}
}

func TestWithAddrFarOutOfBoundsDetags(t *testing.T) {
	c := NewRoot(1<<32, 1<<20, PermsData)
	if !c.WithAddr(1<<32 + 100).Tag() {
		t.Fatal("in-bounds cursor move detagged")
	}
	if c.WithAddr(0).Tag() {
		t.Fatal("cursor at 0 from base 2^32 stayed tagged")
	}
}

func TestColorRequiresPermission(t *testing.T) {
	c := NewRoot(0, 4096, PermsData)
	if _, err := c.WithColor(3); err == nil {
		t.Fatal("recolor without PermRecolor allowed")
	}
	a := NewRoot(0, 4096, PermsData|PermRecolor)
	d, err := a.WithColor(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Color() != 3 {
		t.Fatalf("color = %d, want 3", d.Color())
	}
}

func TestSubset(t *testing.T) {
	p := NewRoot(0x1000, 1<<16, PermsData)
	c, err := p.WithAddr(0x2000).SetBounds(64)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Subset(p) {
		t.Fatal("derived capability not subset of parent")
	}
	if p.Subset(c) {
		t.Fatal("parent subset of child")
	}
}

// Property: derivation is monotone — SetBounds never yields bounds outside
// the parent, and never yields permissions beyond the parent.
func TestQuickDerivationMonotone(t *testing.T) {
	f := func(base uint32, off uint16, length uint16, drop uint16) bool {
		parent := NewRoot(uint64(base), 1<<20, PermsAll)
		child, err := parent.WithAddr(uint64(base) + uint64(off)).SetBounds(uint64(length))
		if err != nil {
			return true // rejection is always safe
		}
		child = child.ClearPerms(Perms(drop))
		return child.Subset(parent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: RepresentableBounds always covers the requested region and
// RepresentableLength/Align produce exactly-representable pairs.
func TestQuickRepresentability(t *testing.T) {
	f := func(base uint64, length uint32) bool {
		l := uint64(length)
		nb, nt := RepresentableBounds(base, l)
		if nb > base || nt < base+l {
			return false
		}
		pad := RepresentableLength(l)
		if pad < l {
			return false
		}
		align := RepresentableAlign(pad)
		ab := base &^ (align - 1)
		eb, et := RepresentableBounds(ab, pad)
		return eb == ab && et == ab+pad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cursor within bounds never detags.
func TestQuickInBoundsCursorKeepsTag(t *testing.T) {
	f := func(base uint32, length uint32, off uint32) bool {
		if length == 0 {
			return true
		}
		c := NewRoot(uint64(base), uint64(length), PermsData)
		a := c.Base() + uint64(off)%c.Len()
		return c.WithAddr(a).Tag()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClearTag is terminal — no derivation resurrects a tag.
func TestQuickClearTagTerminal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		c := NewRoot(rng.Uint64()%(1<<40), 1+rng.Uint64()%(1<<20), PermsAll).ClearTag()
		if d, _ := c.SetBounds(16); d.Tag() {
			t.Fatal("SetBounds resurrected tag")
		}
		if d := c.WithAddr(c.Base()); d.Tag() {
			t.Fatal("WithAddr resurrected tag")
		}
		if d, _ := c.WithColor(1); d.Tag() {
			t.Fatal("WithColor resurrected tag")
		}
	}
}

func TestPermsString(t *testing.T) {
	if got := (PermLoad | PermStore).String(); got != "rw" {
		t.Fatalf("perms string = %q, want %q", got, "rw")
	}
	if got := Perms(0).String(); got != "-" {
		t.Fatalf("empty perms string = %q, want -", got)
	}
}

func BenchmarkSetBounds(b *testing.B) {
	root := NewRoot(0, 1<<40, PermsAll)
	for i := 0; i < b.N; i++ {
		if _, err := root.WithAddr(uint64(i)<<4 + 1<<20).SetBounds(64); err != nil {
			b.Fatal(err)
		}
	}
}
