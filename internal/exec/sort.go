package exec

import (
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
	ev.q.node = s
	if err := ev.q.fire("exec.sort"); err != nil {
		return nil, err
	}
	full := ev.schema.Concat(in.Schema)
	bound := make([]expr.Expr, len(s.Keys))
	for i, k := range s.Keys {
		b, err := k.E.Bind(full)
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	// Precompute key tuples so comparisons during sorting are cheap and
	// expression errors surface before sort.Slice (which cannot fail).
	keys := make([]relation.Tuple, in.Len())
	fullRow := workerScratch(1, ev.row, in.Schema.Len())[0]
	for i, row := range in.Rows {
		if err := ev.q.tick(); err != nil {
			return nil, err
		}
		copy(fullRow[len(ev.row):], row)
		key := make(relation.Tuple, len(bound))
		for j, b := range bound {
			v, err := b.Eval(fullRow)
			if err != nil {
				return nil, err
			}
			key[j] = v
		}
		keys[i] = key
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
