package spill

import (
	"encoding/binary"
	"fmt"

	"github.com/olaplab/gmdj/internal/value"
)

// This file is the spill wire format: a GMDJ base partition as its
// positions and key hashes. Its decoder reads through value.Reader, so
// any structural violation is an error, never a panic or an oversized
// allocation — the bytes may have survived a disk and the checksum is
// only 64 bits (FuzzSpillDecode leans on this).

// EncodePositions encodes a spilled GMDJ base partition — the rows stay
// resident with the evaluator — as a count, its ascending base positions
// in uvarint deltas (the first from 0), then a key-hash count, 0 or one
// per position, and the hashes (8B LE).
func EncodePositions(idx []int32, hash []uint64) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, 2*binary.MaxVarintLen32+len(idx)+8*len(hash)), uint64(len(idx)))
	prev := int32(0)
	for _, i := range idx {
		buf, prev = binary.AppendUvarint(buf, uint64(i-prev)), i
	}
	buf = binary.AppendUvarint(buf, uint64(len(hash)))
	for _, h := range hash {
		buf = binary.LittleEndian.AppendUint64(buf, h)
	}
	return buf
}

// DecodePositions is the inverse of EncodePositions over a base of
// nBase rows. Positions not strictly ascending or not below nBase, a
// hash count that is neither 0 nor the position count, and trailing
// bytes are errors; hash is nil when the partition carries none.
func DecodePositions(data []byte, nBase int) (idx []int32, hash []uint64, err error) {
	r := value.NewReader(data)
	idx = make([]int32, r.Count())
	for i, pos := 0, uint64(0); i < len(idx) && r.Err() == nil; i++ {
		if d := r.Uvarint(); d == 0 && i > 0 || d >= uint64(nBase)-pos {
			r.Failf("position %d of %d: %d past %d in a base of %d", i, len(idx), d, pos, nBase)
		} else {
			pos += d
		}
		idx[i] = int32(pos)
	}
	if m := r.Count(); m != 0 && m != len(idx) {
		r.Failf("%d key hashes for %d positions", m, len(idx))
	} else if hs := r.Take(8 * m); m > 0 && hs != nil {
		hash = make([]uint64, m)
		for i := range hash {
			hash[i] = binary.LittleEndian.Uint64(hs[8*i:])
		}
	}
	if err := r.Finish(); err != nil {
		return nil, nil, fmt.Errorf("spill codec: partition: %w", err)
	}
	return idx, hash, nil
}
