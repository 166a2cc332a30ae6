package exec

import (
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// chain is a run of selections and projections directly above one input
// node, compiled into one per-row step list — steps[0] nearest the input
// — and evaluated in one pass. A σ hands on the row it is given; a π
// builds its items in a scratch tuple of its own, so only the rows the
// top emits are materialized, and each is charged once.
type chain struct {
	top     algebra.Node
	steps   []step
	schema  *relation.Schema // the top's output columns
	project bool             // some step is a π: emitted rows are built, not the input's
}

// step is a σ (pred) or a π (items, when pred is nil), bound against the
// row the step below produced.
type step struct {
	pred  *expr.Pred
	items []expr.Expr
}

// chained reports whether n joins a chain: a non-distinct projection or
// a subquery-free selection. A DISTINCT, a DISTINCT projection or a
// selection with a subquery is a chain of its own and runs serially: it
// folds by first sight, or evaluates its subqueries under its own stats
// node on the query goroutine.
func chained(n algebra.Node) bool {
	switch t := n.(type) {
	case *algebra.Restrict:
		return !algebra.HasSubquery(t.Where)
	case *algebra.Project:
		return !t.Distinct
	}
	return false
}

// evalChain evaluates the chain topped by top in one pass. Over a GMDJ
// the pass runs inside the GMDJ's emit (gmdj.Options.Emit), so no wide
// row is materialized; over anything else it is a morsel pass over the
// input relation. Under a collector the nodes below the top are entered
// here, around the input, and exited with the rows their step let
// through; a node run inside emit reports fused=1 instead of workers.
func (e *Executor) evalChain(top algebra.Node, ev *env) (out *relation.Relation, err error) {
	nodes, input := []algebra.Node{top}, top.Children()[0]
	for chained(top) && chained(input) {
		nodes, input = append(nodes, input), input.Children()[0]
	}
	ops := []*obs.Op{ev.q.col.Current()}
	for _, n := range nodes[1:] {
		label, extras := algebra.Describe(n)
		ops = append(ops, ev.q.col.Enter(label, extras...))
	}
	// counts[m*width+k] is the rows morsel m's step k-1 let through, and
	// k = 0 those a GMDJ emitted; nil without a collector.
	var counts []int64
	width, workers := len(nodes)+1, 0
	g, fused := input.(*algebra.GMDJ)
	if fused = fused && chained(top); fused {
		var gop *obs.Op
		out, err = e.observe(g, ev, func() (*relation.Relation, error) {
			gop = ev.q.col.Current()
			return e.evalGMDJ(g, ev, func(wide *relation.Schema) (*gmdj.Emit, error) {
				c, err := e.compileChain(nodes, wide, ev)
				if err != nil {
					return nil, err
				}
				if ev.q.col != nil {
					counts = make([]int64, width)
				}
				bufs := c.scratch()
				return &gmdj.Emit{Schema: c.schema, Row: func(row relation.Tuple) (relation.Tuple, error) {
					return c.row(bufs, row, counts)
				}}, nil
			})
		})
		if gop != nil { // what the GMDJ kept, and no bytes: it built no row
			gop.Rows, gop.Bytes = total(counts, width, 0), 0
		}
	} else {
		var in *relation.Relation
		bottom, _ := nodes[len(nodes)-1].(*algebra.Restrict)
		if s, ok := input.(*algebra.Scan); ok && bottom != nil {
			in, _, err = e.pruneScanInput(s, bottom.Where, ev)
		} else {
			in, err = e.eval(input, ev)
		}
		var c *chain
		if err == nil {
			c, err = e.compileChain(nodes, in.Schema, ev)
		}
		if err == nil {
			out, counts, workers, err = e.runChain(c, in, ev)
		}
	}
	for i := len(ops) - 1; i >= 0; i-- {
		if fused {
			ops[i].Add("fused", 1)
		}
		ops[i].Add("workers", int64(workers))
		if i > 0 {
			ev.q.col.Exit(ops[i], total(counts, width, len(ops)-i), 0, err)
		}
	}
	return out, err
}

// compileChain fires each node's fault site and binds its step, bottom
// up, against the step's input columns.
func (e *Executor) compileChain(nodes []algebra.Node, in *relation.Schema, ev *env) (*chain, error) {
	c := &chain{top: nodes[0], schema: in}
	for i := len(nodes) - 1; i >= 0; i-- {
		full, err := c.schema, error(nil)
		switch n := nodes[i].(type) {
		case *algebra.Distinct:
			err = ev.q.fire(n, "exec.distinct")
		case *algebra.Restrict:
			var p *expr.Pred
			if err = ev.q.fire(n, "exec.restrict"); err == nil {
				p, err = e.compilePred(n.Where, full, ev.q)
			}
			c.steps = append(c.steps, step{pred: p})
		case *algebra.Project:
			items := make([]expr.Expr, len(n.Items))
			if err = ev.q.fire(n, "exec.project"); err == nil {
				c.schema, err = algebra.ProjectSchema(c.schema, n.Items)
			}
			for j := 0; err == nil && j < len(items); j++ {
				items[j], err = n.Items[j].E.Bind(full)
			}
			c.steps, c.project = append(c.steps, step{items: items}), true
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// scratch allocates one worker's buffers, one per π, for its items.
func (c *chain) scratch() []relation.Tuple {
	var bufs []relation.Tuple
	for _, s := range c.steps {
		if s.pred == nil {
			bufs = append(bufs, make(relation.Tuple, len(s.items)))
		}
	}
	return bufs
}

// row runs the steps over one input row in one worker's scratch buffers.
// It returns the row the top emits — in itself when no step is a π, else
// the last π's scratch — or nil when a σ drops it (where-clause
// truncation). n, when non-nil, counts in at 0 and what step k let
// through at k+1.
func (c *chain) row(bufs []relation.Tuple, in relation.Tuple, n []int64) (relation.Tuple, error) {
	cur := in
	if n != nil {
		n[0]++
	}
	for k, s := range c.steps {
		if s.pred == nil {
			next := bufs[0]
			for i, it := range s.items {
				v, err := it.Eval(cur)
				if err != nil {
					return nil, err
				}
				next[i] = v
			}
			cur, bufs = next, bufs[1:]
		} else if tr, err := s.pred.Tri(cur); err != nil || tr != value.True {
			return nil, err
		}
		if n != nil {
			n[k+1]++
		}
	}
	return cur, nil
}

// slabRows caps the output rows one allocation of a morsel holds, so a
// selective chain does not reserve room for rows it drops.
const slabRows = 64

// runChain is the chain's morsel pass over a materialized input. Workers
// buffer emitted rows per morsel, so concatenating the buffers in order
// reproduces the serial order exactly. A chain that is not chained runs
// serially: a DISTINCT top keeps first-seen rows, and a subquery
// predicate carries per-query mutable state (the memoization table,
// result-cache plumbing) that is not safe off the query goroutine.
func (e *Executor) runChain(c *chain, in *relation.Relation, ev *env) (*relation.Relation, []int64, int, error) {
	workers, seen := 1, map[string]bool(nil)
	if chained(c.top) {
		workers = e.pipelineWorkers(in.Len())
	} else if _, sub := c.top.(*algebra.Restrict); !sub {
		seen = map[string]bool{}
	}
	bufs := make([][]relation.Tuple, workers)
	for w := range bufs {
		bufs[w] = c.scratch()
	}
	morsels, width, w := govern.MorselCount(in.Len()), len(c.steps)+1, c.schema.Len()
	var counts []int64
	if ev.q.col != nil {
		counts = make([]int64, morsels*width)
	}
	outs := make([][]relation.Tuple, morsels)
	used, err := govern.RunMorsels(in.Len(), workers, func(wk, m, lo, hi int) error {
		var n []int64
		if counts != nil {
			n = counts[m*width : (m+1)*width]
		}
		var slab relation.Tuple
		for i, row := range in.Rows[lo:hi] {
			if err := ev.q.tick(); err != nil {
				return err
			}
			out, err := c.row(bufs[wk], row, n)
			if err != nil {
				return err
			} else if out == nil {
				continue
			}
			if seen != nil {
				if k := out.Key(); seen[k] {
					continue
				} else {
					seen[k] = true
				}
			}
			if c.project {
				if len(slab) < w {
					slab = make(relation.Tuple, w*min(hi-lo-i, slabRows))
				}
				out, slab = append(slab[:0:w], out...), slab[w:]
			}
			if err := ev.q.account(out); err != nil {
				return err
			}
			outs[m] = append(outs[m], out)
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return concatMorsels(c.schema, outs), counts, used, nil
}

// total sums column k of counts, width counters a morsel.
func total(counts []int64, width, k int) (rows int64) {
	for m := k; m < len(counts); m += width {
		rows += counts[m]
	}
	return rows
}
