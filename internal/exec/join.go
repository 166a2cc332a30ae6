package exec

import (
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// evalJoin evaluates all join kinds. When the predicate contains
// equi-conjuncts across the two sides, a hash join is used (build on
// the right, probe from the left); otherwise it degrades to a nested
// loop — which is exactly the degradation the paper's Figure 4 join
// baseline suffers under a ≠ correlation.
//
// The build side hashes each right row's key columns (Tuple.KeyHash, as
// the probe does) in morsels, then indexes the hash vector in one serial
// pass into a relation.HashIndex, the index the GMDJ and storage use. A
// nested loop is the empty key: every right row hashes alike, so all of
// them are one bucket's candidates. A probe walks its bucket in
// right-row order, skipping entries of another hash; the probe side pulls
// left-row morsels, emitting per-morsel buffers that concatenate in morsel
// order. Output is therefore byte-identical at any degree.
func (e *Executor) evalJoin(j *algebra.Join, ev *env) (*relation.Relation, error) {
	left, err := e.eval(j.Left, ev)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(j.Right, ev)
	if err != nil {
		return nil, err
	}
	if err := ev.q.fire(j, "exec.join"); err != nil {
		return nil, err
	}
	combined := left.Schema.Concat(right.Schema)
	boundOn, err := j.On.Bind(combined)
	if err != nil {
		return nil, err
	}
	on := expr.Compile(boundOn)
	// ON bound over left ++ right, so every column resolves on one side:
	// the split cannot fail, and its keys are sound.
	split, err := algebra.SplitTheta(j.On, left.Schema, right.Schema)
	if err != nil {
		return nil, err
	}

	var outSchema *relation.Schema
	switch j.Kind {
	case algebra.SemiJoin, algebra.AntiJoin:
		outSchema = left.Schema
	default:
		outSchema = combined
	}
	lw := left.Schema.Len()

	index, err := e.buildJoinIndex(right, split.RightKey, ev)
	if err != nil {
		return nil, err
	}

	// Probe phase: morsel-parallel over the left rows. Each worker
	// carries its own scratch full row; each morsel buffers its
	// emissions so the final concatenation preserves left-row order.
	workers := e.pipelineWorkers(len(left.Rows))
	fulls := make([]relation.Tuple, workers)
	for w := range fulls {
		fulls[w] = make(relation.Tuple, combined.Len())
	}
	nullPad := make(relation.Tuple, right.Schema.Len())
	outs := make([][]relation.Tuple, govern.MorselCount(len(left.Rows)))

	// matchRows visits one left row's candidates, appending emissions
	// to the morsel buffer; semantics per kind match the serial engine
	// (first match suffices for semi, first match disqualifies for
	// anti).
	matchRows := func(fullRow, lRow relation.Tuple, h uint64, buf *[]relation.Tuple) (bool, error) {
		copy(fullRow, lRow)
		matched := false
		for _, ent := range index.Bucket(h) {
			if ent.Hash != h {
				continue
			}
			if err := ev.q.tick(); err != nil {
				return false, err
			}
			copy(fullRow[lw:], right.Rows[ent.Pos])
			tr, err := on.Tri(fullRow)
			if err != nil {
				return false, err
			}
			if tr != value.True {
				continue
			}
			matched = true
			switch j.Kind {
			case algebra.InnerJoin, algebra.LeftOuterJoin:
				joined := fullRow.Clone()
				if err := ev.q.account(joined); err != nil {
					return false, err
				}
				*buf = append(*buf, joined)
			case algebra.SemiJoin:
				if err := ev.q.account(lRow); err != nil {
					return false, err
				}
				*buf = append(*buf, lRow)
				return true, nil // first match suffices
			case algebra.AntiJoin:
				return true, nil // first match disqualifies
			}
		}
		return matched, nil
	}

	used, err := govern.RunMorsels(len(left.Rows), workers, func(w, m, lo, hi int) error {
		for _, lRow := range left.Rows[lo:hi] {
			if err := ev.q.tick(); err != nil {
				return err
			}
			h, keyOK := lRow.KeyHash(split.LeftKey)
			matched := false
			if keyOK {
				var err error
				matched, err = matchRows(fulls[w], lRow, h, &outs[m])
				if err != nil {
					return err
				}
			}
			if matched {
				continue
			}
			switch j.Kind {
			case algebra.LeftOuterJoin:
				padded := lRow.Concat(nullPad)
				if err := ev.q.account(padded); err != nil {
					return err
				}
				outs[m] = append(outs[m], padded)
			case algebra.AntiJoin:
				if err := ev.q.account(lRow); err != nil {
					return err
				}
				outs[m] = append(outs[m], lRow)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ev.q.recordWorkers(used)
	return concatMorsels(outSchema, outs), nil
}

// buildJoinIndex hashes the build side's keys morsel-parallel (workers
// write disjoint ranges of the vector), then indexes them serially.
func (e *Executor) buildJoinIndex(right *relation.Relation, rightPos []int, ev *env) (*relation.HashIndex, error) {
	n := len(right.Rows)
	hs, okv := make([]uint64, n), make([]bool, n)
	_, err := govern.RunMorsels(n, e.pipelineWorkers(n), func(w, m, lo, hi int) error {
		if err := ev.q.tick(); err != nil {
			return err
		}
		for i, row := range right.Rows[lo:hi] {
			hs[lo+i], okv[lo+i] = row.KeyHash(rightPos)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return relation.NewHashIndex(n, func(i int) (uint64, bool) { return hs[i], okv[i] }), nil
}
