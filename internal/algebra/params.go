package algebra

import (
	"fmt"
	"sort"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/value"
)

// This file implements the parameter table for prepared statements: a
// compiled plan may contain expr.Param placeholders anywhere a scalar
// expression may appear, and BindParams instantiates the template by
// substituting literals. RewriteExprs/WalkExprs are the general plan
// walkers behind it — unlike Node.Children and WalkPred they descend
// into subquery predicates and sources at any nesting depth, so no
// placeholder can hide from them.

// RewriteExprs rebuilds the plan with fn applied (via expr.Rewrite) to
// every scalar expression: restriction and join predicates, projection
// items, aggregate arguments, GMDJ θ-conditions, sort keys, and the
// same positions inside subquery predicates and their sources,
// recursively. Node structure is shared where unchanged is cheap to
// share (leaves, key column lists); wrapper nodes are fresh so the
// input plan is never mutated.
func RewriteExprs(n Node, fn func(expr.Expr) expr.Expr) Node {
	rw := func(e expr.Expr) expr.Expr {
		if e == nil {
			return nil
		}
		return expr.Rewrite(e, fn)
	}
	switch t := n.(type) {
	case *Scan, *Raw, nil:
		return n
	case *Alias:
		return &Alias{Input: RewriteExprs(t.Input, fn), Name: t.Name}
	case *Number:
		return &Number{Input: RewriteExprs(t.Input, fn), As: t.As}
	case *Distinct:
		return &Distinct{Input: RewriteExprs(t.Input, fn)}
	case *Restrict:
		return &Restrict{Input: RewriteExprs(t.Input, fn), Where: rewritePred(t.Where, fn)}
	case *Project:
		items := make([]ProjItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = ProjItem{E: rw(it.E), As: it.As}
		}
		return &Project{Input: RewriteExprs(t.Input, fn), Items: items, Distinct: t.Distinct}
	case *Join:
		return &Join{Kind: t.Kind, Left: RewriteExprs(t.Left, fn), Right: RewriteExprs(t.Right, fn), On: rw(t.On)}
	case *GroupBy:
		// Keys are bare column references; placeholders cannot occur there.
		return &GroupBy{Input: RewriteExprs(t.Input, fn), Keys: t.Keys, Aggs: rewriteAggs(t.Aggs, fn)}
	case *GMDJ:
		conds := make([]GMDJCond, len(t.Conds))
		for i, c := range t.Conds {
			conds[i] = GMDJCond{Theta: rw(c.Theta), Aggs: rewriteAggs(c.Aggs, fn)}
		}
		return &GMDJ{Base: RewriteExprs(t.Base, fn), Detail: RewriteExprs(t.Detail, fn), Conds: conds, Completion: t.Completion}
	case *Sort:
		keys := make([]SortKey, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = SortKey{E: rw(k.E), Desc: k.Desc}
		}
		return &Sort{Input: RewriteExprs(t.Input, fn), Keys: keys, Limit: t.Limit}
	case *SetOp:
		return &SetOp{Kind: t.Kind, Left: RewriteExprs(t.Left, fn), Right: RewriteExprs(t.Right, fn)}
	default:
		// Unknown node kinds carry no expressions we know how to reach;
		// return them unchanged rather than guessing.
		return n
	}
}

func rewriteAggs(aggs []agg.Spec, fn func(expr.Expr) expr.Expr) []agg.Spec {
	if len(aggs) == 0 {
		return aggs
	}
	out := make([]agg.Spec, len(aggs))
	for i, a := range aggs {
		arg := a.Arg
		if arg != nil {
			arg = expr.Rewrite(arg, fn)
		}
		out[i] = agg.Spec{Func: a.Func, Arg: arg, As: a.As}
	}
	return out
}

func rewritePred(p Pred, fn func(expr.Expr) expr.Expr) Pred {
	return MapPred(p, func(q Pred) Pred {
		switch t := q.(type) {
		case *Atom:
			return &Atom{E: expr.Rewrite(t.E, fn)}
		case *SubPred:
			var left expr.Expr
			if t.Left != nil {
				left = expr.Rewrite(t.Left, fn)
			}
			sub := &Subquery{
				Source: RewriteExprs(t.Sub.Source, fn),
				Where:  rewritePred(t.Sub.Where, fn),
				OutCol: t.Sub.OutCol,
				Agg:    t.Sub.Agg,
			}
			if t.Sub.Agg != nil {
				specs := rewriteAggs([]agg.Spec{*t.Sub.Agg}, fn)
				sub.Agg = &specs[0]
			}
			return &SubPred{Kind: t.Kind, Op: t.Op, Left: left, Sub: sub}
		default:
			return q
		}
	})
}

// WalkExprs visits every scalar expression node in the plan (the same
// positions RewriteExprs rebuilds), in pre-order within each tree.
func WalkExprs(n Node, fn func(expr.Expr)) {
	RewriteExprs(n, func(e expr.Expr) expr.Expr {
		fn(e)
		return e
	})
}

// ParamCount returns the number of parameters a plan expects: the
// highest placeholder ordinal found anywhere in it (0 when the plan is
// fully literal).
func ParamCount(n Node) int {
	max := 0
	WalkExprs(n, func(e expr.Expr) {
		if p, ok := e.(*expr.Param); ok && p.Ordinal > max {
			max = p.Ordinal
		}
	})
	return max
}

// BindParams instantiates a plan template: every expr.Param is
// replaced with the literal args[Ordinal-1]. The argument count must
// match ParamCount exactly; mismatches and out-of-range ordinals
// report expr.ErrBadParam. The input plan is left untouched, so one
// prepared plan serves concurrent executions.
func BindParams(n Node, args []value.Value) (Node, error) {
	want := ParamCount(n)
	if len(args) != want {
		return nil, fmt.Errorf("algebra: statement expects %d parameter(s), got %d: %w",
			want, len(args), expr.ErrBadParam)
	}
	if want == 0 {
		return n, nil
	}
	bound := RewriteExprs(n, func(e expr.Expr) expr.Expr {
		if p, ok := e.(*expr.Param); ok {
			return &expr.Lit{V: args[p.Ordinal-1]}
		}
		return e
	})
	return bound, nil
}

// Tables returns the sorted set of base tables the plan reads,
// including tables referenced only inside subquery sources at any
// depth. The plan cache records it with each compiled plan.
func Tables(n Node) []string {
	seen := map[string]bool{}
	collectTables(n, seen)
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func collectTables(n Node, seen map[string]bool) {
	switch t := n.(type) {
	case nil:
		return
	case *Scan:
		seen[t.Table] = true
	case *Restrict:
		collectTables(t.Input, seen)
		collectPredTables(t.Where, seen)
	default:
		for _, c := range n.Children() {
			collectTables(c, seen)
		}
	}
}

func collectPredTables(p Pred, seen map[string]bool) {
	WalkPred(p, func(q Pred) bool {
		if t, ok := q.(*SubPred); ok {
			collectTables(t.Sub.Source, seen)
			collectPredTables(t.Sub.Where, seen)
		}
		return true
	})
}
