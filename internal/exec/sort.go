package exec

import (
	"slices"
	"sort"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// evalSort materializes the input, orders it by the sort keys (NULLs
// sort lowest), and applies the limit.
func (e *Executor) evalSort(s *algebra.Sort, ev *env) (*relation.Relation, error) {
	in, err := e.eval(s.Input, ev)
	if err != nil {
		return nil, err
	}
	if err := ev.q.fire(s, "exec.sort"); err != nil {
		return nil, err
	}
	// The keys are a π over the input (chain.row): precomputed, so
	// comparisons during sorting are cheap and expression errors surface
	// before sort.Slice (which cannot fail).
	c := &chain{steps: []step{{items: make([]expr.Expr, len(s.Keys))}}}
	for i, k := range s.Keys {
		if c.steps[0].items[i], err = k.E.Bind(in.Schema); err != nil {
			return nil, err
		}
	}
	keys, bufs := make([]relation.Tuple, in.Len()), c.scratch()
	for i, row := range in.Rows {
		if err := ev.q.tick(); err != nil {
			return nil, err
		}
		key, err := c.row(bufs, row, nil)
		if err != nil {
			return nil, err
		}
		keys[i] = slices.Clone(key)
	}
	idx := make([]int, in.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j := range ka {
			c := compareNullsLow(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if s.Keys[j].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := relation.New(in.Schema)
	limit := len(idx)
	if s.Limit >= 0 && s.Limit < limit {
		limit = s.Limit
	}
	for _, i := range idx[:limit] {
		if err := ev.q.account(in.Rows[i]); err != nil {
			return nil, err
		}
		out.Append(in.Rows[i])
	}
	ev.q.recordWorkers(1)
	return out, nil
}

// compareNullsLow orders values with NULL below everything; values of
// incomparable kinds order by kind for determinism.
func compareNullsLow(a, b value.Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := value.Compare(a, b); ok {
		return c
	}
	// Incomparable kinds: order by kind id, deterministic if odd.
	switch {
	case a.Kind() < b.Kind():
		return -1
	case a.Kind() > b.Kind():
		return 1
	default:
		return 0
	}
}
