package exec

import (
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
)

// pipelineWorkers resolves the degree for one operator pipeline over n
// input rows. The morsel driver itself (claim counter, stop flag, first
// error, per-worker recover) is govern.RunMorsels, shared with the GMDJ.
func (e *Executor) pipelineWorkers(n int) int {
	return govern.MorselWorkers(e.Parallelism, n)
}

// concatMorsels joins the per-morsel output buffers in morsel order,
// which is what makes the output independent of which worker claimed
// which morsel.
func concatMorsels(s *relation.Schema, outs [][]relation.Tuple) *relation.Relation {
	n := 0
	for _, rows := range outs {
		n += len(rows)
	}
	out := relation.New(s)
	out.Rows = make([]relation.Tuple, 0, n)
	for _, rows := range outs {
		out.Rows = append(out.Rows, rows...)
	}
	return out
}

// recordWorkers attaches the pipeline's workers= counter to the
// operator's stats-tree node. Nil-safe through Op.Add.
func (q *query) recordWorkers(workers int) {
	if q == nil || q.col == nil {
		return
	}
	q.col.Current().Add("workers", int64(workers))
}
