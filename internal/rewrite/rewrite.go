// Package rewrite implements Algorithm SubqueryToGMDJ (Theorem 3.5 of
// the paper): the translation of nested query expressions — selections
// whose predicates contain subquery constructs — into flat algebraic
// expressions built from GMDJ operators and count conditions.
//
// The translation follows the paper exactly:
//
//  1. negations are pushed to the atoms (De Morgan) and negations in
//     front of subqueries are eliminated (¬(t φ S) ⇒ t φ̄ S, ¬SOME ⇒
//     ALL, ¬ALL ⇒ SOME, ¬∃ ⇒ ∄);
//  2. each subquery predicate Sᵢ is replaced by a count condition Cᵢ
//     over a GMDJ per the Table 1 mapping;
//  3. linearly nested subqueries recurse inner-most first (Theorem
//     3.2): the inner block's GMDJ becomes the detail relation of the
//     enclosing block's GMDJ;
//  4. non-neighboring correlation predicates are repaired by pushing
//     the referenced outer block down into the offending block's base
//     (Theorems 3.3/3.4) with algebra.Scope, which Unnest shares: a
//     fresh alias and a row-id glue equality added one level up —
//     introducing exactly the n−1 joins the paper proves necessary.
//
// The optimizations of §4 — coalescing (Proposition 4.1) and tuple
// completion (Theorems 4.1/4.2) — live in optimize.go and are applied
// by Optimize on the output of SubqueryToGMDJ.
package rewrite

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/value"
)

// SubqueryToGMDJ rewrites every Restrict node containing subquery
// predicates into a GMDJ expression. The resolver is needed to compute
// block schemas for free-reference (correlation) analysis.
func SubqueryToGMDJ(plan algebra.Node, res algebra.SchemaResolver) (algebra.Node, error) {
	return SubqueryToGMDJOpts(plan, res, Options{})
}

// Options tunes the translation.
type Options struct {
	// AllCounterexample translates ALL subqueries to a single
	// counterexample count — σ[cnt = 0] over θ ∧ ¬(x φ y is true) —
	// instead of Table 1's two-count form. The two are equivalent
	// under where-clause truncation, but the counterexample form is
	// eligible for tuple completion (Theorem 4.2), which is what makes
	// the optimized GMDJ competitive in the paper's Figure 4.
	AllCounterexample bool
}

// SubqueryToGMDJOpts is SubqueryToGMDJ with explicit options.
func SubqueryToGMDJOpts(plan algebra.Node, res algebra.SchemaResolver, opts Options) (algebra.Node, error) {
	rw := &rewriter{res: res, opts: opts}
	return algebra.MapSubqueries(plan, rw.rewriteRestrict)
}

type rewriter struct {
	res     algebra.SchemaResolver
	opts    Options
	counter int
}

func (rw *rewriter) fresh(prefix string) string {
	rw.counter++
	return fmt.Sprintf("%s%d", prefix, rw.counter)
}

// rewriteRestrict is the top-level entry of the algorithm: it receives
// the (already rewritten) input B and the predicate W of σ[W](B), its
// negations pushed down.
func (rw *rewriter) rewriteRestrict(input algebra.Node, w algebra.Pred) (algebra.Node, error) {
	inSchema, err := input.Schema(rw.res)
	if err != nil {
		return nil, err
	}
	base, sel, err := rw.lift(&algebra.Subquery{Source: input, Where: w}, algebra.NewScope(rw.fresh))
	if err != nil {
		return nil, err
	}
	// Project back to the original schema (drop the count columns).
	return algebra.NewProject(algebra.Filter(base, sel), false, algebra.SchemaItems(inSchema)...), nil
}

// lift converts a subquery block S into (detail plan, θ condition) for
// use in an enclosing GMDJ (Theorem 3.2); at the top level, S is the
// selection itself and scope is empty. Nested subqueries inside S's
// predicate are themselves eliminated by stacking GMDJs over S's
// source. Non-neighboring references are repaired here (Theorems
// 3.3/3.4): a copy of the enclosing block that owns one is pushed into
// S's source and its glue is appended to the returned θ.
func (rw *rewriter) lift(sub *algebra.Subquery, scope *algebra.Scope) (algebra.Node, expr.Expr, error) {
	srcSchema, err := sub.Source.Schema(rw.res)
	if err != nil {
		return nil, nil, err
	}
	pred := sub.Where
	if pred == nil {
		pred = &algebra.Atom{E: expr.TrueExpr()}
	}

	// Gather nested subquery predicates.
	var nested []*algebra.SubPred
	algebra.WalkPred(pred, func(q algebra.Pred) bool {
		if sp, ok := q.(*algebra.SubPred); ok {
			nested = append(nested, sp)
		}
		return true
	})

	type liftedSub struct {
		sp     *algebra.SubPred
		detail algebra.Node
		conds  []algebra.GMDJCond
		repl   expr.Expr
	}
	var lifted []liftedSub
	inner := scope.Enter(sub.Source, srcSchema)
	for _, sp := range nested {
		d, theta, err := rw.lift(sp.Sub, inner)
		if err != nil {
			return nil, nil, err
		}
		conds, repl, err := rw.table1(sp, theta)
		if err != nil {
			return nil, nil, err
		}
		lifted = append(lifted, liftedSub{sp: sp, detail: d, conds: conds, repl: repl})
	}

	// A θ or aggregate argument of a nested GMDJ ranges over this
	// block's source and that GMDJ's detail; any other column it reads
	// is pushed down from the enclosing block that owns it.
	source, srcSchema := inner.Own()
	push := scope.Push(source)
	for _, ls := range lifted {
		dSchema, err := ls.detail.Schema(rw.res)
		if err != nil {
			return nil, nil, err
		}
		for ci := range ls.conds {
			c := &ls.conds[ci]
			err := push.Resolve(&c.Theta, srcSchema, dSchema)
			for ai := 0; err == nil && ai < len(c.Aggs); ai++ {
				err = push.Resolve(&c.Aggs[ai].Arg, srcSchema, dSchema)
			}
			if err != nil {
				return nil, nil, err
			}
		}
	}

	// Stack the GMDJs for nested subqueries over the (possibly
	// augmented) source, and substitute count conditions into pred.
	cur := push.Plan
	replacements := map[*algebra.SubPred]algebra.Pred{}
	for _, ls := range lifted {
		cur = algebra.NewGMDJ(cur, ls.detail, ls.conds...)
		replacements[ls.sp] = &algebra.Atom{E: ls.repl}
	}
	pred2 := substitute(pred, replacements)
	theta, err := algebra.PredExpr(pred2)
	if err != nil {
		return nil, nil, err
	}
	if len(push.Glue) > 0 {
		theta = expr.NewAnd(append([]expr.Expr{theta}, push.Glue...)...)
	}
	return cur, theta, nil
}

// table1 applies the Table 1 mapping for one subquery predicate whose
// correlation condition θ is already flattened. It returns the GMDJ
// condition list and the replacement count condition Cᵢ.
func (rw *rewriter) table1(sp *algebra.SubPred, theta expr.Expr) ([]algebra.GMDJCond, expr.Expr, error) {
	count := func(name string) []agg.Spec {
		return []agg.Spec{{Func: agg.CountStar, As: name}}
	}
	switch sp.Kind {
	case algebra.Exists:
		cnt := rw.fresh("cnt")
		return []algebra.GMDJCond{{Theta: theta, Aggs: count(cnt)}},
			expr.NewCmp(value.GT, expr.C(cnt), expr.IntLit(0)), nil

	case algebra.NotExists:
		cnt := rw.fresh("cnt")
		return []algebra.GMDJCond{{Theta: theta, Aggs: count(cnt)}},
			expr.Eq(expr.C(cnt), expr.IntLit(0)), nil

	case algebra.CmpSome:
		if sp.Sub.OutCol == nil {
			return nil, nil, fmt.Errorf("rewrite: SOME subquery lacks an output column")
		}
		cnt := rw.fresh("cnt")
		th := expr.NewAnd(theta, expr.NewCmp(sp.Op, expr.Clone(sp.Left), colRef(sp.Sub.OutCol)))
		return []algebra.GMDJCond{{Theta: th, Aggs: count(cnt)}},
			expr.NewCmp(value.GT, expr.C(cnt), expr.IntLit(0)), nil

	case algebra.CmpAll:
		if sp.Sub.OutCol == nil {
			return nil, nil, fmt.Errorf("rewrite: ALL subquery lacks an output column")
		}
		if rw.opts.AllCounterexample {
			// b survives iff no r has θ true while x φ y is false or
			// unknown. The counterexamples split exactly into three
			// disjointly-countable classes:
			//
			//	θ ∧ (x φ̄ y)        — the comparison is definitely false
			//	θ ∧ x IS NULL      — unknown because x is NULL
			//	θ ∧ y IS NULL      — unknown because y is NULL
			//
			// Splitting matters: for ≠-ALL (NOT IN) the first class is
			// an equality x = y, which the GMDJ evaluator turns into a
			// hash binding, and the NULL classes are gated by base-only
			// and detail-only predicates that cost nothing when the
			// data has no NULLs. All three counts must be zero, and all
			// three are ZERO completion atoms (Theorem 4.2).
			cntF, cntX, cntY := rw.fresh("cnt"), rw.fresh("cnt"), rw.fresh("cnt")
			cmpFalse := expr.NewCmp(sp.Op.Negate(), expr.Clone(sp.Left), colRef(sp.Sub.OutCol))
			conds := []algebra.GMDJCond{
				{Theta: expr.NewAnd(expr.Clone(theta), cmpFalse), Aggs: count(cntF)},
				{Theta: expr.NewAnd(expr.Clone(theta), expr.NewIsNull(expr.Clone(sp.Left), false)), Aggs: count(cntX)},
				{Theta: expr.NewAnd(expr.Clone(theta), expr.NewIsNull(colRef(sp.Sub.OutCol), false)), Aggs: count(cntY)},
			}
			sel := expr.NewAnd(
				expr.Eq(expr.C(cntF), expr.IntLit(0)),
				expr.Eq(expr.C(cntX), expr.IntLit(0)),
				expr.Eq(expr.C(cntY), expr.IntLit(0)),
			)
			return conds, sel, nil
		}
		cnt1, cnt2 := rw.fresh("cnt"), rw.fresh("cnt")
		th1 := expr.NewAnd(expr.Clone(theta), expr.NewCmp(sp.Op, expr.Clone(sp.Left), colRef(sp.Sub.OutCol)))
		return []algebra.GMDJCond{
				{Theta: th1, Aggs: count(cnt1)},
				{Theta: theta, Aggs: count(cnt2)},
			},
			expr.Eq(expr.C(cnt1), expr.C(cnt2)), nil

	case algebra.ScalarCmp:
		if sp.Sub.Agg != nil {
			name := rw.fresh("agg")
			spec := agg.Spec{Func: sp.Sub.Agg.Func, Arg: sp.Sub.Agg.Arg, As: name}
			return []algebra.GMDJCond{{Theta: theta, Aggs: []agg.Spec{spec}}},
				expr.NewCmp(sp.Op, expr.Clone(sp.Left), expr.C(name)), nil
		}
		if sp.Sub.OutCol == nil {
			return nil, nil, fmt.Errorf("rewrite: scalar subquery lacks an output column or aggregate")
		}
		cnt := rw.fresh("cnt")
		th := expr.NewAnd(theta, expr.NewCmp(sp.Op, expr.Clone(sp.Left), colRef(sp.Sub.OutCol)))
		return []algebra.GMDJCond{{Theta: th, Aggs: count(cnt)}},
			expr.Eq(expr.C(cnt), expr.IntLit(1)), nil

	default:
		return nil, nil, fmt.Errorf("rewrite: unknown subquery kind %v", sp.Kind)
	}
}

func colRef(c *expr.Col) expr.Expr { return expr.NewCol(c.Qualifier, c.Name) }

// condCols lists every column a condition list reads: its θs and its
// aggregate arguments.
func condCols(conds []algebra.GMDJCond) []*expr.Col {
	var out []*expr.Col
	for _, c := range conds {
		out = append(out, expr.Cols(c.Theta)...)
		for _, a := range c.Aggs {
			if a.Arg != nil {
				out = append(out, expr.Cols(a.Arg)...)
			}
		}
	}
	return out
}

// substitute replaces subquery predicates by their count conditions.
func substitute(p algebra.Pred, repl map[*algebra.SubPred]algebra.Pred) algebra.Pred {
	return algebra.MapPred(p, func(q algebra.Pred) algebra.Pred {
		if sp, ok := q.(*algebra.SubPred); ok && repl[sp] != nil {
			return repl[sp]
		}
		return q
	})
}
