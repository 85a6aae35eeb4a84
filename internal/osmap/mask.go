package osmap

import (
	"fmt"
	"math/bits"
)

// Mask is a variable-width distro bitmask: bit i set means the entry
// affects the i-th distribution of the owning registry's universe (see
// Registry.Distros). It replaces the fixed uint16 record mask so the
// engine supports arbitrarily many distributions. The zero value is an
// empty mask of width 0; SetGrow widens it.
type Mask []uint64

// SetGrow sets bit i, widening the mask as needed, and returns the
// (possibly reallocated) mask. This is the digestion-boundary form: a
// feed entry referencing a distribution beyond the universe width grows
// the mask instead of crashing ingestion. Negative indices panic.
func (m Mask) SetGrow(i int) Mask {
	for i>>6 >= len(m) {
		m = append(m, 0)
	}
	m[i>>6] |= 1 << uint(i&63)
	return m
}

// Has reports whether bit i is set. Out-of-range bits read as unset.
func (m Mask) Has(i int) bool {
	w := i >> 6
	return w < len(m) && m[w]&(1<<uint(i&63)) != 0
}

// OnesCount returns the number of set bits.
func (m Mask) OnesCount() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether the two masks have the same set bits, ignoring
// trailing zero words. Only tests call it (core's population and
// parallel-build tests).
func (m Mask) Equal(o Mask) bool {
	long, short := m, o
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bits writes the indices of the set bits into dst in ascending order and
// returns how many it wrote. dst must have capacity for OnesCount()
// indices.
func (m Mask) Bits(dst []int) int {
	n := 0
	for wi, w := range m {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			dst[n] = base + bits.TrailingZeros64(w)
			n++
		}
	}
	return n
}

// ForEachBit calls fn with every set bit index in ascending order.
func (m Mask) ForEachBit(fn func(i int)) {
	for wi, w := range m {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			fn(base + bits.TrailingZeros64(w))
		}
	}
}

// String renders the mask as a set of bit indices, for diagnostics.
func (m Mask) String() string {
	out := "{"
	first := true
	m.ForEachBit(func(i int) {
		if !first {
			out += ","
		}
		out += fmt.Sprint(i)
		first = false
	})
	return out + "}"
}
