package gmdj

import (
	"encoding/binary"
	"fmt"

	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// This file is the memory-adaptive evaluation regime: when the query's
// reservation cannot hold the whole base state, the base relation is
// partitioned by the top bits of each row's hash ("hash prefix"), cold
// partitions are encoded to checksummed temp files, and the partitions
// are admitted against the reservation one at a time and handed to the
// same driver as the in-memory regimes (evalPartition) — at the cost
// of one extra full detail scan per additional partition. The paper's
// one-scan guarantee (Prop. 4.1) relaxes to 1+k scans; Stats reports k
// in ExtraDetailScans. Output stays byte-identical to in-memory
// evaluation because every partition row remembers its original base
// position and a single emit pass walks the full base in order.

// minPartitionBytes floors the per-partition budget so pathological
// reservations cannot explode the partition count.
const minPartitionBytes = 16 << 10

// maxSpillParts caps the initial fan-out; worklist splitting handles
// partitions that still do not fit.
const maxSpillParts = 256

// spillPart is one worklist item: a partition of the base relation,
// resident (rows != nil) or evicted to a spill file.
type spillPart struct {
	partition
	file  *spill.File
	n     int // row count (valid for both forms)
	depth int // split depth, bounds recursion
}

// evalSpilled is Evaluate's degraded regime. est is the rejected
// whole-state estimate.
func (p *program) evalSpilled(tracker *mem.Tracker, store *spill.Store, est int64, out result) error {
	nBase := len(p.base.Rows)
	perRow := est / int64(nBase)
	if perRow < 1 {
		perRow = 1
	}

	// Size the initial fan-out so each partition's state fits the
	// reservation's current headroom (floored to keep partition count
	// sane when the reservation is tiny).
	target := tracker.Available() / 2
	if target < minPartitionBytes {
		target = minPartitionBytes
	}
	parts := 1
	for parts < maxSpillParts && est/int64(parts) > target {
		parts *= 2
	}
	if parts < 2 {
		parts = 2
	}
	bits := 0
	for 1<<bits < parts {
		bits++
	}

	// Partition base rows by hash prefix (top bits of the tuple hash).
	groups := make([][]int32, parts)
	for bi, row := range p.base.Rows {
		pi := int(row.Hash() >> (64 - uint(bits)))
		groups[pi] = append(groups[pi], int32(bi))
	}

	// The first non-empty partition stays resident; the rest are
	// encoded to spill files. Deferred cleanup removes whatever is
	// still on disk when we leave — on success (files are consumed as
	// partitions are processed), on error, on cancellation, and on
	// panic unwinding through this frame alike.
	var work []spillPart
	var liveFiles []*spill.File
	defer func() {
		for _, f := range liveFiles {
			f.Remove()
		}
	}()
	resident := true
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		rows := make([]relation.Tuple, len(g))
		for i, bi := range g {
			rows[i] = p.base.Rows[bi]
		}
		if resident {
			resident = false
			work = append(work, spillPart{partition: partition{rows: rows, idx: g}, n: len(g)})
			continue
		}
		f, err := store.Write("gmdj-part", spill.EncodePartition(g, rows))
		if err != nil {
			return err
		}
		liveFiles = append(liveFiles, f)
		work = append(work, spillPart{file: f, n: len(g)})
		p.Stats.SpillPartitions++
		p.Stats.SpillBytesWritten += f.Bytes
	}

	scans := 0
	for len(work) > 0 {
		part := work[0]
		work = work[1:]
		if err := p.Gov.Check(); err != nil {
			return err
		}
		if part.file != nil {
			payload, err := part.file.Read()
			if err != nil {
				return err
			}
			p.Stats.SpillBytesRead += part.file.Bytes
			part.file.Remove()
			for i, f := range liveFiles {
				if f == part.file {
					liveFiles = append(liveFiles[:i], liveFiles[i+1:]...)
					break
				}
			}
			part.idx, part.rows, err = spill.DecodePartition(payload)
			if err != nil {
				return err
			}
		}

		// Charge this partition's state; a partition that still does not
		// fit splits in two and both halves re-enter the worklist. A
		// single row that does not fit runs uncharged — it cannot shrink,
		// and refusing it would turn degradation back into a kill.
		partEst := int64(part.n) * perRow
		charged := int64(0)
		if err := tracker.Grow(partEst); err != nil {
			if part.n > 1 && part.depth < 20 {
				mid := part.n / 2
				work = append(work,
					spillPart{partition: partition{rows: part.rows[:mid], idx: part.idx[:mid]}, n: mid, depth: part.depth + 1},
					spillPart{partition: partition{rows: part.rows[mid:], idx: part.idx[mid:]}, n: part.n - mid, depth: part.depth + 1},
				)
				continue
			}
		} else {
			charged = partEst
		}
		err := p.evalPartition(part.partition, out)
		tracker.Shrink(charged)
		if err != nil {
			return err
		}
		scans++
	}
	if scans > 1 {
		p.Stats.ExtraDetailScans += int64(scans - 1)
	}
	return nil
}

// init registers the detail hash-vector codec so cached vectors can
// move through the spill store's cold tier like any relation.
func init() {
	spill.RegisterCodec(spill.Codec{
		Name: "gmdjhashvec",
		Encode: func(v any) ([]byte, bool) {
			vec, ok := v.(*detailHashVec)
			if !ok {
				return nil, false
			}
			buf := binary.AppendUvarint(nil, uint64(len(vec.H)))
			for _, h := range vec.H {
				buf = binary.LittleEndian.AppendUint64(buf, h)
			}
			for _, ok := range vec.OK {
				b := byte(0)
				if ok {
					b = 1
				}
				buf = append(buf, b)
			}
			return buf, true
		},
		Decode: func(data []byte) (any, error) {
			r := value.NewReader(data)
			n := r.Count()
			hs, oks := r.Take(8*n), r.Take(n)
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("spill codec: hash vector: %w", err)
			}
			vec := &detailHashVec{H: make([]uint64, n), OK: make([]bool, n)}
			for i := range vec.H {
				vec.H[i] = binary.LittleEndian.Uint64(hs[8*i:])
				vec.OK[i] = oks[i] != 0
			}
			return vec, nil
		},
	})
}
