package alloc

import "repro/internal/ca"

// Size-class geometry, after snmalloc: multiples of 16 bytes up to 128,
// then four classes per power of two. Every class size is exactly
// CHERI-representable, so returned capabilities never carry slack.
const (
	// MinAlloc is the smallest allocation unit (one capability granule).
	MinAlloc = 16
	// MaxSmall is the largest size served from slabs.
	MaxSmall = 4096
	// SlabSize is the span carved per size class.
	SlabSize = 64 << 10
	// chunkSize is the reservation unit requested from the kernel.
	chunkSize = 1 << 20
	// MaxMedium is the largest size served page-granularly from chunks;
	// bigger allocations get their own reservation.
	MaxMedium = 256 << 10
)

// classSizes lists the small size classes in ascending order.
var classSizes []uint64

// classIndexBySize maps ceil(size/16) to a class index, for sizes ≤ MaxSmall.
var classIndexBySize [MaxSmall/MinAlloc + 1]uint8

func init() {
	for s := uint64(MinAlloc); s <= 128; s += 16 {
		classSizes = append(classSizes, s)
	}
	for base := uint64(128); base < MaxSmall; base *= 2 {
		for i := uint64(1); i <= 4; i++ {
			s := base + i*base/4
			if s > MaxSmall {
				break
			}
			if s != ca.RepresentableLength(s) {
				panic("alloc: non-representable size class")
			}
			classSizes = append(classSizes, s)
		}
	}
	ci := 0
	for u := 1; u <= MaxSmall/MinAlloc; u++ {
		size := uint64(u) * MinAlloc
		for classSizes[ci] < size {
			ci++
		}
		classIndexBySize[u] = uint8(ci)
	}
}

// NumClasses returns the number of small size classes.
func NumClasses() int { return len(classSizes) }

// ClassSize returns the object size of class c.
func ClassSize(c int) uint64 { return classSizes[c] }

// SizeToClass returns the smallest class index serving size (≤ MaxSmall).
func SizeToClass(size uint64) int {
	if size == 0 {
		size = 1
	}
	return int(classIndexBySize[(size+MinAlloc-1)/MinAlloc])
}

// RoundAlloc returns the usable size a request of size bytes receives:
// the class size for small requests, page-and-representability rounded
// otherwise.
func RoundAlloc(size uint64) uint64 {
	if size <= MaxSmall {
		return ClassSize(SizeToClass(size))
	}
	pages := (size + 4095) &^ 4095
	return ca.RepresentableLength(pages)
}
