package ca

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// roundTrip encodes and decodes c, failing the test on any mismatch.
func roundTrip(t *testing.T, c Capability) {
	t.Helper()
	b, err := c.Encode()
	if err != nil {
		t.Fatalf("encode %v: %v", c, err)
	}
	d := Decode(b, c.Tag())
	if d != c {
		t.Fatalf("round trip mismatch:\n in %v\nout %v", c, d)
	}
}

func TestEncodeDecodeBasics(t *testing.T) {
	roundTrip(t, NewRoot(0x1000, 64, PermsData))
	roundTrip(t, NewRoot(0x1_0000_0000, 1<<20, PermsAll))
	roundTrip(t, NewRoot(0, 16, PermLoad))
	// Cursor at top (one past the end).
	c := NewRoot(0x4000, 256, PermsData).WithAddr(0x4100)
	roundTrip(t, c)
	// Cursor slightly below base, still in the representable window.
	c = NewRoot(0x10000, 4096, PermsData).WithAddr(0x10000 - 64)
	if !c.Tag() {
		t.Fatal("cursor just below base should stay representable")
	}
	roundTrip(t, c)
}

func TestEncodeDecodeColorsAndSealing(t *testing.T) {
	a := NewRoot(0x2000, 128, PermsData|PermRecolor)
	col, err := a.WithColor(9)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, col)

	sealer := NewRoot(0, 8192, PermSeal|PermUnseal).WithAddr(42)
	obj := NewRoot(0x8000, 256, PermsData)
	sealed, err := obj.Seal(sealer)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, sealed)
}

func TestEncodeNull(t *testing.T) {
	b, err := Null(0xdead).Encode()
	if err != nil {
		t.Fatal(err)
	}
	d := Decode(b, false)
	if d.Tag() || d.Addr() != 0xdead || !d.IsNull() {
		t.Fatalf("null round trip = %v", d)
	}
}

func TestEncodeRejectsOversizedFields(t *testing.T) {
	c := NewRoot(0x1000, 64, PermsData)
	c.meta |= 1 << 13 << otypeShift // out of field range
	if _, err := c.Encode(); err == nil {
		t.Fatal("oversized otype encoded")
	}
	c = NewRoot(0x1000, 64, PermsData)
	c.meta |= 16 << colorShift
	if _, err := c.Encode(); err == nil {
		t.Fatal("oversized color encoded")
	}
}

func TestEncodedCapabilityFitsGranule(t *testing.T) {
	if EncodedSize != GranuleSize {
		t.Fatalf("encoded size %d != granule size %d", EncodedSize, GranuleSize)
	}
}

// Property: every capability derivable through the package API encodes,
// and the round trip is exact — including large regions (non-zero
// exponent) and out-of-bounds cursors that survived WithAddr.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(base uint64, length uint32, cursorOff int32, perms uint16, color uint8) bool {
		base %= 1 << 44
		l := uint64(length)%(1<<26) + 1
		root := NewRoot(base, l, Perms(perms)&PermsAll|PermRecolor)
		if col, err := root.WithColor(color % 16); err == nil {
			root = col
		}
		moved := root.AddAddr(uint64(int64(cursorOff)))
		for _, c := range []Capability{root, moved} {
			b, err := c.Encode()
			if err != nil {
				return false
			}
			// Exact round-trip is promised for tagged capabilities; a
			// detagged far-out cursor legitimately decodes to different
			// bounds (its bits no longer mean anything).
			if c.Tag() && Decode(b, true) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// Property: SetBounds-derived children round-trip too (their bases are not
// window-aligned like roots' are).
func TestQuickEncodeDerivedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	root := NewRoot(0, 1<<40, PermsAll)
	for i := 0; i < 20000; i++ {
		addr := rng.Uint64() % (1 << 38)
		length := rng.Uint64()%(1<<20) + 1
		child, err := root.WithAddr(addr).SetBounds(length)
		if err != nil {
			continue
		}
		// Move the cursor around inside (and slightly outside) bounds.
		child = child.AddAddr(rng.Uint64() % (child.Len() + 1))
		roundTrip(t, child)
	}
}
