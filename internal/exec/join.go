package exec

import (
	"sync"

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
// Both phases are morsel-parallel under Executor.Parallelism. The
// build side hashes each row's key columns (Tuple.KeyHash, as the probe
// does) and partitions the hash table by hash modulo shard, each shard built
// by one worker in right-row order; the probe side pulls left-row
// morsels, emitting per-morsel buffers that concatenate in morsel
// order. Candidate lists and per-left-row emit order are therefore
// identical to the serial engine's single hash table — byte-identical
// output at any degree.
func (e *Executor) evalJoin(j *algebra.Join, ev *env) (*relation.Relation, error) {
	left, err := e.eval(j.Left, ev)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(j.Right, ev)
	if err != nil {
		return nil, err
	}
	ev.q.node = j
	if err := ev.q.fire("exec.join"); err != nil {
		return nil, err
	}
	combined := left.Schema.Concat(right.Schema)
	boundOn, err := j.On.Bind(combined)
	if err != nil {
		return nil, err
	}
	on := expr.Compile(boundOn)
	leftQ := schemaQualifiers(left.Schema)
	rightQ := schemaQualifiers(right.Schema)
	bindings, _ := expr.SplitBindings(j.On, leftQ, rightQ)

	var outSchema *relation.Schema
	switch j.Kind {
	case algebra.SemiJoin, algebra.AntiJoin:
		outSchema = left.Schema
	default:
		outSchema = combined
	}
	lw := left.Schema.Len()

	// Keep only bindings that verifiably resolve on exactly one side:
	// probe keys must be sound (the full predicate re-checks every pair,
	// but a wrong key would wrongly *miss* pairs).
	var leftPos, rightPos []int
	for _, b := range bindings {
		lp, lerr := left.Schema.Find(b.Left.Qualifier, b.Left.Name)
		rp, rerr := right.Schema.Find(b.Right.Qualifier, b.Right.Name)
		if lerr != nil || rerr != nil {
			continue
		}
		if _, err := right.Schema.Find(b.Left.Qualifier, b.Left.Name); err == nil {
			continue // also resolves on the right — ambiguous, skip
		}
		if _, err := left.Schema.Find(b.Right.Qualifier, b.Right.Name); err == nil {
			continue
		}
		leftPos = append(leftPos, lp)
		rightPos = append(rightPos, rp)
	}

	var probe func(lRow relation.Tuple) ([]int, bool)
	if len(leftPos) > 0 {
		index, err := e.buildJoinIndex(right, rightPos, ev)
		if err != nil {
			return nil, err
		}
		probe = index.probeFor(leftPos)
	} else {
		all := make([]int, len(right.Rows))
		for i := range all {
			all[i] = i
		}
		probe = func(relation.Tuple) ([]int, bool) { return all, true }
	}

	// Probe phase: morsel-parallel over the left rows. Each worker
	// carries its own scratch full row; each morsel buffers its
	// emissions so the final concatenation preserves left-row order.
	workers := e.pipelineWorkers(len(left.Rows))
	fulls := workerScratch(workers, nil, combined.Len())
	nullPad := make(relation.Tuple, right.Schema.Len())
	outs := make([][]relation.Tuple, govern.MorselCount(len(left.Rows)))

	// matchRows visits one left row's candidates, appending emissions
	// to the morsel buffer; semantics per kind match the serial engine
	// (first match suffices for semi, first match disqualifies for
	// anti).
	matchRows := func(fullRow, lRow relation.Tuple, candidates []int, buf *[]relation.Tuple) (bool, error) {
		copy(fullRow, lRow)
		matched := false
		for _, ri := range candidates {
			if err := ev.q.tick(); err != nil {
				return false, err
			}
			copy(fullRow[lw:], right.Rows[ri])
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
			candidates, keyOK := probe(lRow)
			matched := false
			if keyOK {
				var err error
				matched, err = matchRows(fulls[w], lRow, candidates, &outs[m])
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

// joinIndex is the hash-join build side: row positions bucketed by key
// hash, partitioned into shards by hash modulo. One shard is the
// serial engine's single map; with several, a probe reads exactly one
// shard, and bucket lists remain in right-row order because each shard
// scans the hash vector start to finish.
type joinIndex struct {
	shards []map[uint64][]int
}

func (ix *joinIndex) probeFor(leftPos []int) func(relation.Tuple) ([]int, bool) {
	n := uint64(len(ix.shards))
	return func(lRow relation.Tuple) ([]int, bool) {
		h, ok := lRow.KeyHash(leftPos)
		if !ok {
			return nil, false
		}
		return ix.shards[h%n][h], true
	}
}

// buildJoinIndex computes the key-hash vector over the build side
// (morsel-parallel: workers write disjoint ranges of the vector), then
// builds the shard maps, one worker per shard.
func (e *Executor) buildJoinIndex(right *relation.Relation, rightPos []int, ev *env) (*joinIndex, error) {
	n := len(right.Rows)
	hs := make([]uint64, n)
	okv := make([]bool, n)
	used, err := govern.RunMorsels(n, e.pipelineWorkers(n), func(w, m, lo, hi int) error {
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
	nShards := used
	ix := &joinIndex{shards: make([]map[uint64][]int, nShards)}
	build := func(s int) {
		m := make(map[uint64][]int, n/nShards+1)
		for ri := 0; ri < n; ri++ {
			if !okv[ri] {
				continue
			}
			h := hs[ri]
			if int(h%uint64(nShards)) == s {
				m[h] = append(m[h], ri)
			}
		}
		ix.shards[s] = m
	}
	if nShards == 1 {
		build(0)
	} else {
		var wg sync.WaitGroup
		for s := 0; s < nShards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				build(s)
			}(s)
		}
		wg.Wait()
	}
	return ix, nil
}

func schemaQualifiers(s *relation.Schema) map[string]bool {
	out := map[string]bool{}
	for _, c := range s.Columns {
		out[c.Qualifier] = true
	}
	return out
}
