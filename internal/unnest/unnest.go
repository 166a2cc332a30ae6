// Package unnest implements the conventional join/outer-join unnesting
// baseline the paper compares against: the best-of-breed combination of
// the classical techniques (Kim's aggregate-then-join with the COUNT
// bug fixed by outer joins [Ganski & Wong], Dayal's semi/anti-join
// translations of quantified predicates, and magic-decorrelation-style
// push-down of outer tables for non-neighboring predicates).
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

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
)

// Unnest rewrites every subquery-bearing selection in the plan into
// join form.
func Unnest(plan algebra.Node, res algebra.SchemaResolver) (algebra.Node, error) {
	u := &unnester{res: res}
	return u.walk(plan)
}

type unnester struct {
	res     algebra.SchemaResolver
	counter int
}

func (u *unnester) fresh(prefix string) string {
	u.counter++
	return fmt.Sprintf("%s%d", prefix, u.counter)
}

// walk unnests every subquery-bearing selection below and at n, inputs
// first.
func (u *unnester) walk(n algebra.Node) (algebra.Node, error) {
	out, err := algebra.MapInputs(n, u.walk)
	if err != nil {
		return nil, err
	}
	if r, ok := out.(*algebra.Restrict); ok {
		return u.unnestRestrict(r.Input, r.Where)
	}
	return out, nil
}

type envEntry struct {
	node   algebra.Node
	schema *relation.Schema
}

func (u *unnester) unnestRestrict(input algebra.Node, w algebra.Pred) (algebra.Node, error) {
	w = algebra.PushDownNegations(w)
	if !algebra.HasSubquery(w) {
		return algebra.NewRestrict(input, w), nil
	}
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
	for _, sp := range subs {
		var deferred []expr.Expr
		cur, deferred, err = u.applySub(cur, inSchema, sp, nil)
		if err != nil {
			return nil, err
		}
		if len(deferred) > 0 {
			return nil, fmt.Errorf("unnest: unresolved correlation %s at the outermost block", deferred[0])
		}
	}
	return cur, nil
}

// splitConjuncts flattens W into plain-expression atoms and subquery
// predicates. Disjunctions containing subqueries are rejected.
func splitConjuncts(w algebra.Pred) ([]expr.Expr, []*algebra.SubPred, error) {
	var atoms []expr.Expr
	var subs []*algebra.SubPred
	var visit func(p algebra.Pred) error
	visit = func(p algebra.Pred) error {
		switch n := p.(type) {
		case *algebra.PredAnd:
			for _, t := range n.Terms {
				if err := visit(t); err != nil {
					return err
				}
			}
			return nil
		case *algebra.Atom:
			atoms = append(atoms, n.E)
			return nil
		case *algebra.SubPred:
			subs = append(subs, n)
			return nil
		case *algebra.PredOr:
			if algebra.HasSubquery(n) {
				return fmt.Errorf("unnest: disjunctive subquery predicates cannot be unnested into joins")
			}
			e, err := algebra.PredExpr(n)
			if err != nil {
				return err
			}
			atoms = append(atoms, e)
			return nil
		case *algebra.PredNot:
			if algebra.HasSubquery(n) {
				return fmt.Errorf("unnest: residual negated subquery predicate %s", n)
			}
			e, err := algebra.PredExpr(n)
			if err != nil {
				return err
			}
			atoms = append(atoms, e)
			return nil
		default:
			return fmt.Errorf("unnest: unknown predicate %T", p)
		}
	}
	if err := visit(w); err != nil {
		return nil, nil, err
	}
	return atoms, subs, nil
}

// buildInner translates a subquery block into (plan, correlation
// conjuncts). Nested subqueries become joins inside the plan;
// references to enclosing blocks beyond the immediate one are repaired
// by pushing an aliased copy of the referenced base into the plan and
// returning a glue equality among the correlation conjuncts.
func (u *unnester) buildInner(sub *algebra.Subquery, env []envEntry) (algebra.Node, []expr.Expr, error) {
	src, err := u.walk(sub.Source)
	if err != nil {
		return nil, nil, err
	}
	srcSchema, err := src.Schema(u.res)
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

	cur := src
	curSchema := srcSchema
	env2 := append(append([]envEntry{}, env...), envEntry{node: src, schema: srcSchema})
	var deferred []expr.Expr
	for _, sp := range subs {
		var up []expr.Expr
		cur, up, err = u.applySub(cur, curSchema, sp, env2)
		if err != nil {
			return nil, nil, err
		}
		deferred = append(deferred, up...)
		curSchema, err = cur.Schema(u.res)
		if err != nil {
			return nil, nil, err
		}
	}

	// Partition atoms into local (resolve within cur) and correlated.
	// Free references beyond the immediately enclosing block are left
	// in the correlation list; the applySub invocation that joins this
	// block repairs them by pushing the referenced base down into its
	// own base side (Theorems 3.3/3.4's analogue for joins).
	var local, corr []expr.Expr
	for _, a := range atoms {
		if refsWithin(a, curSchema) {
			local = append(local, a)
			continue
		}
		corr = append(corr, a)
	}
	if len(local) > 0 {
		cur = algebra.Filter(cur, expr.Conj(local))
	}
	return cur, append(corr, deferred...), nil
}

// applySub joins one subquery predicate onto base. Correlation
// conjuncts that reference blocks beyond base ∪ inner are repaired by
// pushing the referenced enclosing base into this join's base side
// under a fresh alias; the resulting glue equality is returned as
// deferred work for the next level up.
func (u *unnester) applySub(base algebra.Node, baseSchema *relation.Schema, sp *algebra.SubPred, env []envEntry) (algebra.Node, []expr.Expr, error) {
	envForInner := append(append([]envEntry{}, env...), envEntry{node: base, schema: baseSchema})
	inner, corr, err := u.buildInner(sp.Sub, envForInner)
	if err != nil {
		return nil, nil, err
	}
	innerSchema, err := inner.Schema(u.res)
	if err != nil {
		return nil, nil, err
	}
	var deferred []expr.Expr
	pushed := map[*envEntry]string{}
	for i := range corr {
		for _, c := range expr.Cols(corr[i]) {
			if resolvesIn(c, baseSchema) || resolvesIn(c, innerSchema) {
				continue
			}
			entry := findEnv(env, c)
			if entry == nil {
				return nil, nil, fmt.Errorf("unnest: free reference %s resolves in no enclosing block", c)
			}
			alias, ok := pushed[entry]
			if !ok {
				alias = u.fresh("pd")
				pushed[entry] = alias
				base = algebra.NewJoin(algebra.InnerJoin,
					algebra.NewAlias(entry.node, alias), base, expr.TrueExpr())
				baseSchema, err = base.Schema(u.res)
				if err != nil {
					return nil, nil, err
				}
				for _, col := range entry.schema.Columns {
					deferred = append(deferred, expr.Eq(
						expr.NewCol(col.Qualifier, col.Name),
						expr.NewCol(alias, col.Name),
					))
				}
			}
			corr[i] = expr.RenameQualifier(corr[i], c.Qualifier, alias)
		}
	}
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
	items := make([]algebra.ProjItem, baseSchema.Len())
	for i, c := range baseSchema.Columns {
		items[i] = algebra.ProjItem{E: expr.NewCol(c.Qualifier, c.Name)}
	}
	return algebra.NewProject(keep, false, items...), nil
}

// aggregateJoin implements the aggregate-then-outer-join translation
// with the COUNT-bug fix: a probe column survives as NULL on padded
// rows so COUNT(probe) is 0 for outer tuples without matches.
func (u *unnester) aggregateJoin(base algebra.Node, baseSchema *relation.Schema, sp *algebra.SubPred, inner algebra.Node, on expr.Expr) (algebra.Node, error) {
	rid := u.fresh("__rid")
	probe := u.fresh("__probe")
	val := u.fresh("__val")

	innerSchema, err := inner.Schema(u.res)
	if err != nil {
		return nil, err
	}
	// Extend the inner side with the probe constant.
	items := make([]algebra.ProjItem, 0, innerSchema.Len()+1)
	for _, c := range innerSchema.Columns {
		items = append(items, algebra.ProjItem{E: expr.NewCol(c.Qualifier, c.Name)})
	}
	items = append(items, algebra.ProjItem{E: expr.IntLit(1), As: probe})
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

	filtered := algebra.Filter(grouped,
		expr.NewCmp(sp.Op, expr.Clone(sp.Left), expr.NewCol("", val)))

	// Back to the base schema (drop rid and val).
	outItems := make([]algebra.ProjItem, baseSchema.Len())
	for i, c := range baseSchema.Columns {
		outItems[i] = algebra.ProjItem{E: expr.NewCol(c.Qualifier, c.Name)}
	}
	return algebra.NewProject(filtered, false, outItems...), nil
}

func refsWithin(e expr.Expr, s *relation.Schema) bool {
	for _, c := range expr.Cols(e) {
		if !resolvesIn(c, s) {
			return false
		}
	}
	return true
}

func resolvesIn(c *expr.Col, s *relation.Schema) bool {
	_, err := s.Find(c.Qualifier, c.Name)
	return err == nil
}

func findEnv(env []envEntry, c *expr.Col) *envEntry {
	for i := len(env) - 1; i >= 0; i-- {
		if resolvesIn(c, env[i].schema) {
			return &env[i]
		}
	}
	return nil
}
