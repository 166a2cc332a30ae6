package exec

import (
	"slices"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// subqueryMemo caches subquery predicate outcomes keyed by the outer
// correlation values — Rao & Ross's "reusing invariants" strategy
// (SIGMOD'98), which the paper cites as one of the optimization schemes
// the GMDJ framework generalizes. A subquery's truth value depends only
// on the outer columns its predicate references; outer tuples that bind
// those columns identically share one evaluation.
type subqueryMemo struct {
	keyPos []int // positions in the outer row forming the key
	cache  map[string]outcome
}

type outcome struct {
	tr  value.Tri
	err error
}

// newSubqueryMemo derives the correlation key columns of a subquery
// predicate: every outer-schema column referenced by its correlation
// predicate tree or its left operand. ok is false when the key cannot
// be derived (caching would be unsound), e.g. a predicate form the
// walker does not cover.
func newSubqueryMemo(sp *algebra.SubPred, outer *relation.Schema) (*subqueryMemo, bool) {
	pos := map[int]bool{}
	addExpr := func(e expr.Expr) {
		for _, c := range expr.Cols(e) {
			if i, err := outer.Find(c.Qualifier, c.Name); err == nil {
				pos[i] = true
			}
		}
	}
	if sp.Left != nil {
		addExpr(sp.Left)
	}
	sound := true
	var walk func(p algebra.Pred)
	walk = func(p algebra.Pred) {
		algebra.WalkPred(p, func(q algebra.Pred) bool {
			switch n := q.(type) {
			case *algebra.Atom:
				addExpr(n.E)
			case *algebra.SubPred:
				// Nested subqueries may reference the outer block too.
				if n.Left != nil {
					addExpr(n.Left)
				}
				if n.Sub.Agg != nil && n.Sub.Agg.Arg != nil {
					addExpr(n.Sub.Agg.Arg)
				}
				walk(n.Sub.Where)
			case *algebra.PredAnd, *algebra.PredOr, *algebra.PredNot:
			default:
				sound = false
			}
			return true
		})
	}
	walk(sp.Sub.Where)
	if sp.Sub.Agg != nil && sp.Sub.Agg.Arg != nil {
		addExpr(sp.Sub.Agg.Arg)
	}
	if !sound {
		return nil, false
	}
	keys := make([]int, 0, len(pos))
	for i := range pos {
		keys = append(keys, i)
	}
	slices.Sort(keys) // deterministic order for the key tuple
	return &subqueryMemo{keyPos: keys, cache: map[string]outcome{}}, true
}

// key renders the correlation values of one outer row.
func (m *subqueryMemo) key(outerRow relation.Tuple) string {
	t := make(relation.Tuple, len(m.keyPos))
	for i, p := range m.keyPos {
		t[i] = outerRow[p]
	}
	return t.Key()
}

// lookup returns a cached outcome.
func (m *subqueryMemo) lookup(k string) (value.Tri, error, bool) {
	o, ok := m.cache[k]
	return o.tr, o.err, ok
}

// store records an outcome.
func (m *subqueryMemo) store(k string, tr value.Tri, err error) {
	m.cache[k] = outcome{tr, err}
}
