// Package lattice models the cube lattice (§2.4, Fig 2.4): the 2^d cuboids
// of a d-dimensional CUBE, the bottom-up (BUC) processing tree over them,
// the recursive binary division of that tree into equal-size tasks used by
// algorithm PT, and the prefix/subset affinity relations used by the
// ASL/AHT/PT schedulers.
//
// A cuboid is identified by a Mask: bit i set means dimension i is a
// GROUP BY attribute. Within a cuboid, attributes are always processed in
// ascending dimension order, so the mask determines the attribute sequence.
package lattice

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxDims bounds the number of cube dimensions a Mask can carry.
const MaxDims = 30

// Mask identifies a cuboid: bit i set ⇔ dimension i grouped. Mask 0 is the
// "all" node (no GROUP BY).
type Mask uint32

// MaskOf builds a mask from dimension indices.
func MaskOf(dims ...int) Mask {
	var m Mask
	for _, d := range dims {
		if d < 0 || d >= MaxDims {
			panic(fmt.Sprintf("lattice: dimension %d out of range", d))
		}
		m |= 1 << uint(d)
	}
	return m
}

// Dims returns the dimension indices in ascending order.
func (m Mask) Dims() []int {
	dims := make([]int, 0, bits.OnesCount32(uint32(m)))
	for d := 0; m != 0; d++ {
		if m&1 != 0 {
			dims = append(dims, d)
		}
		m >>= 1
	}
	return dims
}

// Count returns the number of GROUP BY attributes of the cuboid.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Has reports whether dimension d is grouped.
func (m Mask) Has(d int) bool { return m&(1<<uint(d)) != 0 }

// SubsetOf reports whether every attribute of m is also in o.
func (m Mask) SubsetOf(o Mask) bool { return m&^o == 0 }

// PrefixOf reports whether m's attribute sequence is a prefix of o's, i.e.
// m ⊆ o and every attribute of o \ m is larger than every attribute of m.
// (ABC is a prefix of ABCD; ACD is not a prefix of ABCD.)
func (m Mask) PrefixOf(o Mask) bool {
	if !m.SubsetOf(o) {
		return false
	}
	extra := o &^ m
	if extra == 0 {
		return true
	}
	if m == 0 {
		return true
	}
	highest := 31 - bits.LeadingZeros32(uint32(m))
	lowestExtra := bits.TrailingZeros32(uint32(extra))
	return lowestExtra > highest
}

// Label renders the cuboid using the given dimension names ("ALL" for the
// empty mask).
func (m Mask) Label(names []string) string {
	if m == 0 {
		return "ALL"
	}
	var b strings.Builder
	for i, d := range m.Dims() {
		if i > 0 {
			b.WriteByte(',')
		}
		if d < len(names) {
			b.WriteString(names[d])
		} else {
			fmt.Fprintf(&b, "D%d", d)
		}
	}
	return b.String()
}

// All returns every non-empty cuboid of a d-dimensional cube (2^d - 1
// masks; the "all" node is handled separately by the algorithms, as in the
// paper's task definitions).
func All(d int) []Mask {
	if d > MaxDims {
		panic(fmt.Sprintf("lattice: %d dimensions exceeds MaxDims", d))
	}
	out := make([]Mask, 0, (1<<uint(d))-1)
	for m := Mask(1); m < 1<<uint(d); m++ {
		out = append(out, m)
	}
	return out
}

// NumCuboids returns 2^d, the number of group-bys of a d-dimensional cube
// (including "all").
func NumCuboids(d int) int { return 1 << uint(d) }
