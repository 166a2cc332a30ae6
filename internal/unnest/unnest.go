// Package unnest implements the conventional join/outer-join unnesting
// baseline the paper compares against: the best-of-breed combination of
// the classical techniques (Kim's aggregate-then-join with the COUNT
// bug fixed by outer joins [Ganski & Wong], Dayal's semi/anti-join
// translations of quantified predicates, and magic-decorrelation-style
// push-down of outer tables for non-neighboring predicates — the one
// push-down, algebra.Scope, that SubqueryToGMDJ also uses).
//
// Mapping per construct:
//
//	EXISTS S            ⇒ base ⋉_θ S
//	NOT EXISTS S        ⇒ base ▷_θ S
//	x φ_some S          ⇒ base ⋉_{θ ∧ x φ y} S
//	x φ_all  S          ⇒ base ▷_{θ ∧ ¬(x φ y is true)} S   (counterexample anti-join)
//	x φ (scalar S)      ⇒ base ⋉_{θ ∧ x φ y} S
//	x φ (aggregate S)   ⇒ ρ[rid](base) ⟕_θ S' → γ[rid, base; f(y)] → σ[x φ val] → π[base]
//
// where S' carries a constant probe column so COUNT survives the outer
// join (count bug). Disjunctions over subquery predicates are not
// expressible with these techniques; Unnest reports an error for them,
// which is itself one of the paper's points in favor of the GMDJ.
package unnest

import (
	"fmt"
	"slices"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
)

// Unnest rewrites every subquery-bearing selection in the plan into
// join form.
func Unnest(plan algebra.Node, res algebra.SchemaResolver) (algebra.Node, error) {
	u := &unnester{res: res}
	return algebra.MapSubqueries(plan, u.unnestRestrict)
}

type unnester struct {
	res     algebra.SchemaResolver
	counter int
}

func (u *unnester) fresh(prefix string) string {
	u.counter++
	return fmt.Sprintf("%s%d", prefix, u.counter)
}

// unnestRestrict unnests σ[W](input), W's negations pushed down.
func (u *unnester) unnestRestrict(input algebra.Node, w algebra.Pred) (algebra.Node, error) {
	inSchema, err := input.Schema(u.res)
	if err != nil {
		return nil, err
	}
	atoms, subs, err := splitConjuncts(w)
	if err != nil {
		return nil, err
	}
	cur := input
	if len(atoms) > 0 {
		cur = algebra.Filter(cur, expr.Conj(atoms))
	}
	scope := algebra.NewScope(u.fresh)
	for _, sp := range subs {
		if cur, _, err = u.applySub(cur, sp, scope); err != nil {
			return nil, err
		}
	}
	// A copy pushed down from this block left its row id behind.
	out, err := cur.Schema(u.res)
	if err != nil {
		return nil, err
	}
	if out.Len() > inSchema.Len() {
		cur = algebra.NewProject(cur, false, algebra.SchemaItems(inSchema)...)
	}
	return cur, nil
}

// splitConjuncts flattens W's conjunction into plain-expression atoms
// and subquery predicates. A subquery predicate under OR is rejected
// (negations are already pushed down to the atoms).
func splitConjuncts(w algebra.Pred) (atoms []expr.Expr, subs []*algebra.SubPred, err error) {
	algebra.WalkPred(w, func(p algebra.Pred) bool {
		switch n := p.(type) {
		case *algebra.PredAnd:
			return true
		case *algebra.SubPred:
			subs = append(subs, n)
		default:
			e, perr := algebra.PredExpr(n)
			if perr != nil {
				err = fmt.Errorf("unnest: disjunctive subquery predicates cannot be unnested into joins")
			}
			atoms = append(atoms, e)
		}
		return false
	})
	return atoms, subs, err
}

// buildInner translates a subquery block into (plan, correlation
// conjuncts). Nested subqueries become joins inside the plan;
// references to enclosing blocks beyond the immediate one are repaired
// by pushing an aliased copy of the owning block into the plan and
// returning a glue equality among the correlation conjuncts.
func (u *unnester) buildInner(sub *algebra.Subquery, scope *algebra.Scope) (algebra.Node, []expr.Expr, error) {
	cur, err := algebra.MapSubqueries(sub.Source, u.unnestRestrict)
	if err != nil {
		return nil, nil, err
	}
	pred := sub.Where
	if pred == nil {
		pred = &algebra.Atom{E: expr.TrueExpr()}
	}
	atoms, subs, err := splitConjuncts(algebra.PushDownNegations(pred))
	if err != nil {
		return nil, nil, err
	}

	var deferred []expr.Expr
	for _, sp := range subs {
		var up []expr.Expr
		if cur, up, err = u.applySub(cur, sp, scope); err != nil {
			return nil, nil, err
		}
		deferred = append(deferred, up...)
	}
	curSchema, err := cur.Schema(u.res)
	if err != nil {
		return nil, nil, err
	}

	// Partition atoms into local (resolve within cur) and correlated.
	// Free references beyond the immediately enclosing block are left
	// in the correlation list; the applySub invocation that joins this
	// block repairs them by pushing the owning block down into its own
	// base side (Theorems 3.3/3.4's analogue for joins).
	var local, corr []expr.Expr
	for _, a := range atoms {
		free := slices.ContainsFunc(expr.Cols(a), func(c *expr.Col) bool {
			return !algebra.Resolves(c, curSchema)
		})
		if free {
			corr = append(corr, a)
		} else {
			local = append(local, a)
		}
	}
	if len(local) > 0 {
		cur = algebra.Filter(cur, expr.Conj(local))
	}
	return cur, append(corr, deferred...), nil
}

// applySub joins one subquery predicate onto base, a block nested in
// scope. A correlation conjunct, left operand or aggregate argument
// that reads a block beyond base ∪ inner is repaired by pushing a copy
// of that block into base (algebra.Scope); the glue is returned as
// deferred work for the next level up.
func (u *unnester) applySub(base algebra.Node, sp *algebra.SubPred, scope *algebra.Scope) (algebra.Node, []expr.Expr, error) {
	baseSchema, err := base.Schema(u.res)
	if err != nil {
		return nil, nil, err
	}
	nested := scope.Enter(base, baseSchema)
	inner, corr, err := u.buildInner(sp.Sub, nested)
	if err != nil {
		return nil, nil, err
	}
	innerSchema, err := inner.Schema(u.res)
	if err != nil {
		return nil, nil, err
	}
	base, baseSchema = nested.Own()
	// Resolve into a copy of sp: its left operand and aggregate argument
	// may move to a pushed copy.
	push := scope.Push(base)
	spc, sub := *sp, *sp.Sub
	spc.Sub = &sub
	sp = &spc
	for i := 0; err == nil && i < len(corr); i++ {
		err = push.Resolve(&corr[i], baseSchema, innerSchema)
	}
	if err == nil {
		err = push.Resolve(&sp.Left, baseSchema, innerSchema)
	}
	if err == nil && sub.Agg != nil {
		spec := *sub.Agg
		sub.Agg = &spec
		err = push.Resolve(&spec.Arg, baseSchema, innerSchema)
	}
	if err != nil {
		return nil, nil, err
	}
	base = push.Plan
	if baseSchema, err = base.Schema(u.res); err != nil {
		return nil, nil, err
	}
	deferred := push.Glue
	on := expr.Conj(corr)
	cmp := func() expr.Expr {
		return expr.NewCmp(sp.Op, expr.Clone(sp.Left), expr.NewCol(sp.Sub.OutCol.Qualifier, sp.Sub.OutCol.Name))
	}
	switch sp.Kind {
	case algebra.Exists:
		return algebra.NewJoin(algebra.SemiJoin, base, inner, on), deferred, nil
	case algebra.NotExists:
		return algebra.NewJoin(algebra.AntiJoin, base, inner, on), deferred, nil
	case algebra.CmpSome:
		if sp.Sub.OutCol == nil {
			return nil, nil, fmt.Errorf("unnest: SOME subquery lacks an output column")
		}
		return algebra.NewJoin(algebra.SemiJoin, base, inner, expr.NewAnd(on, cmp())), deferred, nil
	case algebra.CmpAll:
		if sp.Sub.OutCol == nil {
			return nil, nil, fmt.Errorf("unnest: ALL subquery lacks an output column")
		}
		c := cmp()
		notTrue := expr.NewOr(expr.NewNot(c), expr.NewIsNull(expr.Clone(c), false))
		out, err := u.allBySetDifference(base, baseSchema, inner, expr.NewAnd(on, notTrue))
		return out, deferred, err
	case algebra.ScalarCmp:
		if sp.Sub.Agg != nil {
			out, err := u.aggregateJoin(base, baseSchema, sp, inner, on)
			return out, deferred, err
		}
		if sp.Sub.OutCol == nil {
			return nil, nil, fmt.Errorf("unnest: scalar subquery lacks an output column")
		}
		return algebra.NewJoin(algebra.SemiJoin, base, inner, expr.NewAnd(on, cmp())), deferred, nil
	default:
		return nil, nil, fmt.Errorf("unnest: unknown subquery kind %v", sp.Kind)
	}
}

// allBySetDifference implements the classical unnesting of quantified
// ALL predicates: materialize the join of outer tuples with their
// counterexamples, then subtract the disqualified outer tuples (Dayal's
// set-difference formulation, as also produced by the APPLY-removal
// rules of Galindo-Legaria & Joshi). With a non-equality correlation —
// the paper's Figure 4 — the counterexample join has no usable keys
// and its materialization explodes quadratically; this is precisely
// the behaviour the paper reports (> 7 hours at 20k rows).
func (u *unnester) allBySetDifference(base algebra.Node, baseSchema *relation.Schema, inner algebra.Node, counterexample expr.Expr) (algebra.Node, error) {
	rid := u.fresh("__rid")
	rid2 := u.fresh("__rid")
	numbered := algebra.NewNumber(base, rid)
	counterJoin := algebra.NewJoin(algebra.InnerJoin, numbered, inner, counterexample)
	bad := algebra.NewDistinct(algebra.NewProject(counterJoin, false,
		algebra.ProjItem{E: expr.NewCol("", rid), As: rid2}))
	keep := algebra.NewJoin(algebra.AntiJoin, numbered, bad,
		expr.Eq(expr.NewCol("", rid), expr.NewCol("", rid2)))
	return algebra.NewProject(keep, false, algebra.SchemaItems(baseSchema)...), nil
}

// aggregateJoin implements the aggregate-then-outer-join translation
// with the COUNT-bug fix: a probe column survives as NULL on padded
// rows so COUNT(probe) is 0 for outer tuples without matches. A base
// tuple is kept when left φ its aggregate holds.
func (u *unnester) aggregateJoin(base algebra.Node, baseSchema *relation.Schema, sp *algebra.SubPred, inner algebra.Node, on expr.Expr) (algebra.Node, error) {
	rid := u.fresh("__rid")
	probe := u.fresh("__probe")
	val := u.fresh("__val")

	innerSchema, err := inner.Schema(u.res)
	if err != nil {
		return nil, err
	}
	// Extend the inner side with the probe constant.
	items := append(algebra.SchemaItems(innerSchema), algebra.ProjItem{E: expr.IntLit(1), As: probe})
	probed := algebra.NewProject(inner, false, items...)

	numbered := algebra.NewNumber(base, rid)
	loj := algebra.NewJoin(algebra.LeftOuterJoin, numbered, probed, on)

	// Group back to outer tuples: rid plus all base columns as keys.
	keys := []*expr.Col{expr.NewCol("", rid)}
	for _, c := range baseSchema.Columns {
		keys = append(keys, expr.NewCol(c.Qualifier, c.Name))
	}
	spec := agg.Spec{Func: sp.Sub.Agg.Func, Arg: sp.Sub.Agg.Arg, As: val}
	if spec.Func == agg.CountStar {
		spec = agg.Spec{Func: agg.Count, Arg: expr.NewCol("", probe), As: val}
	}
	grouped := algebra.NewGroupBy(loj, keys, []agg.Spec{spec})
	filtered := algebra.Filter(grouped, expr.NewCmp(sp.Op, expr.Clone(sp.Left), expr.NewCol("", val)))
	// Back to the base schema (drop rid and val).
	return algebra.NewProject(filtered, false, algebra.SchemaItems(baseSchema)...), nil
}
