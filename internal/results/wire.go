package results

import (
	"encoding/binary"
	"fmt"
	"math"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
)

// Cell wire format, used when cuboids move between cluster nodes (gathers,
// POL result collection): repeated records of
//
//	[mask u32][keyLen u32][key u32...][count u64][sum f64][min f64][max f64]

// Encode serializes every cell of the set, cuboids in ascending mask
// order and each cuboid's cells in tuple order.
func (s *Set) Encode() []byte {
	var buf []byte
	s.Each(func(m lattice.Mask, key []uint32, st agg.State) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		for _, v := range key {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Count))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Sum))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Max))
	})
	return buf
}

// DecodeInto merges an encoded cell stream into the set (states merge on
// key collision, as partial cuboids require).
func (s *Set) DecodeInto(buf []byte) error {
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("results: truncated cell stream at byte %d", off)
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if off+8 > len(buf) {
			return 0, fmt.Errorf("results: truncated cell stream at byte %d", off)
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	keyBuf := make([]uint32, lattice.MaxDims)
	for off < len(buf) {
		mask, err := u32()
		if err != nil {
			return err
		}
		klen, err := u32()
		if err != nil {
			return err
		}
		if klen > uint32(lattice.MaxDims) {
			return fmt.Errorf("results: cell key length %d exceeds MaxDims", klen)
		}
		key := keyBuf[:klen]
		for i := range key {
			if key[i], err = u32(); err != nil {
				return err
			}
		}
		count, err := u64()
		if err != nil {
			return err
		}
		sum, err := u64()
		if err != nil {
			return err
		}
		min, err := u64()
		if err != nil {
			return err
		}
		max, err := u64()
		if err != nil {
			return err
		}
		err = s.write(lattice.Mask(mask), key, agg.State{
			Count: int64(count),
			Sum:   math.Float64frombits(sum),
			Min:   math.Float64frombits(min),
			Max:   math.Float64frombits(max),
		})
		if err != nil {
			return err
		}
	}
	return nil
}
