package gmdj

import (
	"slices"

	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/spill"
)

// This file is the memory-adaptive evaluation regime: when the query's
// reservation cannot hold the whole base state, the base relation is
// partitioned by the top bits of a hash ("hash prefix", parts), cold
// partitions' base positions and key hashes are written to checksummed
// temp files — the base itself stays resident, emit reads it — and the
// partitions are folded in rounds: each admits up to passWorkers of them
// against the reservation, gathers their rows by position, and hands
// them to the same driver as the in-memory regimes (evalPartition),
// which folds them concurrently. A routed program still reads the
// detail once; any other pays one extra full detail scan per additional
// partition — the paper's one-scan guarantee (Prop. 4.1) relaxes to 1+k
// scans; Stats reports k in ExtraDetailScans.
// Output stays byte-identical to in-memory evaluation because a
// partition is its rows' base positions and a single emit pass walks the
// full base in order.

// maxSpillParts caps the initial fan-out; worklist splitting handles
// partitions that still do not fit.
const maxSpillParts = 256

// minPartitionBytes floors an unrouted program's initial partitions:
// each costs it a full detail scan. A routed program reads the detail
// once however finely its base is cut, so its partitions are sized to
// the headroom alone, and a round can fold two of them in a small pool.
const minPartitionBytes = 16 << 10

// spillFanout is the initial cut of an est-byte base state, in hash
// bits: 2 to maxSpillParts partitions, each within per bytes.
func spillFanout(est, per int64) int {
	bits := 1
	for 1<<bits < maxSpillParts && est>>bits > per {
		bits++
	}
	return bits
}

// spillPart is one worklist item: a partition of the base relation,
// resident or evicted to a spill file (rows empty, with room for them).
type spillPart struct {
	partition
	file  *spill.File
	n     int // row count (valid for both forms)
	depth int // split depth, bounds recursion
}

// evalSpilled is Evaluate's degraded regime. est is the rejected
// whole-state estimate.
func (p *program) evalSpilled(tracker *mem.Tracker, store *spill.Store, est int64, out result) error {
	perRow := max(est/int64(len(p.base.Rows)), 1)

	// The first non-empty partition stays resident; the rest go to
	// spill files as positions and key hashes. Deferred cleanup removes
	// whatever is still on disk when we leave — on success (files are
	// consumed as partitions are processed), on error, on cancellation,
	// and on panic unwinding through this frame alike.
	var work []spillPart
	var charged int64 // the folding round's charge, owed back however it ends
	defer func() {
		tracker.Shrink(charged)
		for _, part := range work {
			part.file.Remove()
		}
	}()
	for i, part := range p.parts() {
		if i == 0 {
			work = append(work, spillPart{partition: part, n: len(part.rows)})
			continue
		}
		f, err := store.Write("gmdj-part", spill.EncodePositions(part.idx, part.hash))
		if err != nil {
			return err
		}
		work = append(work, spillPart{partition: partition{rows: part.rows[:0], detail: part.detail}, file: f, n: len(part.rows)})
		p.Stats.SpillPartitions++
		p.Stats.SpillBytesWritten += f.Bytes
	}

	scans := 0
	for len(work) > 0 {
		if err := p.Gov.Check(); err != nil {
			return err // before popping: the deferred sweep removes every file left
		}
		batch, n, err := p.admit(tracker, &work, perRow)
		if charged = n; err == nil && len(batch) > 0 {
			err = p.evalPartition(out, batch...)
		}
		if err != nil {
			return err
		}
		tracker.Shrink(charged) // on the query goroutine: a Tracker is not safe for concurrent use
		charged, scans = 0, scans+len(batch)
	}
	if scans > 1 && !p.route {
		p.Stats.ExtraDetailScans += int64(scans - 1)
	}
	return nil
}

// admit takes one round off the worklist: up to passWorkers partitions,
// each charged against the reservation before its file is read back.
// A refused charge ends the round with what it holds; a partition
// refused alone splits in two, both halves going back on the worklist
// (an empty round), unless it is a single row, which cannot shrink: it
// folds alone and uncharged, since refusing it would turn degradation
// back into a kill. charged is owed back whether or not err is nil.
func (p *program) admit(tracker *mem.Tracker, work *[]spillPart, perRow int64) (batch []partition, charged int64, err error) {
	for len(*work) > 0 && len(batch) < max(p.passWorkers, 1) {
		part := (*work)[0]
		est := int64(part.n) * perRow
		refused := tracker.Grow(est) != nil
		if refused && len(batch) > 0 {
			break
		}
		if !refused {
			charged += est
		}
		*work = (*work)[1:]
		if part.file != nil {
			payload, err := part.file.Read() // removes the file when it fails
			if err != nil {
				return nil, charged, err
			}
			p.Stats.SpillBytesRead += part.file.Bytes
			part.file.Remove()
			if part.idx, part.hash, err = spill.DecodePositions(payload, len(p.base.Rows)); err != nil {
				return nil, charged, err
			}
			for _, bi := range part.idx {
				part.rows = append(part.rows, p.base.Rows[bi])
			}
		}
		if refused && part.n > 1 && part.depth < 20 {
			*work = append(*work, p.split(part)...)
			break
		}
		if batch = append(batch, part.partition); refused {
			break
		}
	}
	return batch, charged, nil
}

// split halves a partition that does not fit: by position, each half
// walking all of its rows — or, routed, at its median key hash t, each
// half walking only its keys' rows, unless one hash holds the lower
// half and all above it (a hot key, which no key cut splits).
func (p *program) split(part spillPart) []spillPart {
	mid, depth := part.n/2, part.depth+1
	halves := []spillPart{ // a hot key's halves drop its one hash: newState redoes it
		{partition: partition{rows: part.rows[:mid], idx: part.idx[:mid], detail: part.detail}, n: mid, depth: depth},
		{partition: partition{rows: part.rows[mid:], idx: part.idx[mid:], detail: part.detail}, n: part.n - mid, depth: depth},
	}
	sorted := slices.Clone(part.hash) // empty, so no key cut, unless routed
	slices.Sort(sorted)
	j := slices.IndexFunc(sorted, func(h uint64) bool { return h != sorted[0] })
	if j < 0 {
		return halves
	}
	t, halves := sorted[max(j, mid)], make([]spillPart, 2) // t > 0: h/t is 0 below the cut, at least 1 from it
	for i, h := range part.hash {
		half := &halves[min(h/t, 1)]
		half.rows, half.idx, half.hash, half.n, half.depth = append(half.rows, part.rows[i]), append(half.idx, part.idx[i]), append(half.hash, h), half.n+1, depth
	}
	for _, di := range part.detail {
		half := &halves[min(p.conds[0].detailHash.H[di]/t, 1)]
		half.detail = append(half.detail, di)
	}
	return halves
}
