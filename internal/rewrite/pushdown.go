package rewrite

import (
	"reflect"
	"slices"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
)

// PushSelections moves selections to where they shrink an operand of a
// GMDJ before the operator reads it (DESIGN §16). Two rules, applied
// top-down — each only moves conjuncts towards the leaves, so one pass
// reaches the fixpoint:
//
//	(a) MD(B, R, l, (c ∧ θ₁ .. c ∧ θₘ))  ⇒  MD(B, σ[c](R), l, (θ₁ .. θₘ))
//	    for conjuncts c over R's columns alone that occur in every θᵢ: a
//	    detail tuple on which c is not True satisfies no θᵢ (Kleene ∧), so
//	    it is in no range RNG(b, R, θᵢ) and feeds no aggregate.
//	(b) σ[p ∧ q](MD(B, R, l, θ))  ⇒  σ[q](MD(σ[p](B), R, l, θ))
//	    for conjuncts p over B's columns alone: the operator emits every
//	    base tuple once, its base columns unchanged, so p reads the same
//	    values on either side.
//
// Adjacent selections merge, so what (a) places above a nested GMDJ is
// (b)'s input and what either places above a selection becomes one
// selection directly over the scan, where the executor's zone maps see
// it. A conjunct that names a column an enclosing block also has stays
// where it is: θ is closed over base ++ detail, a selection is not.
// Selections holding subquery predicates and GMDJs inside subquery
// sources are left alone; SubqueryToGMDJ leaves neither behind.
func PushSelections(plan algebra.Node, res algebra.SchemaResolver) (algebra.Node, error) {
	p := &pusher{res: res}
	return p.push(plan, relation.NewSchema())
}

type pusher struct {
	res algebra.SchemaResolver
}

// push rewrites n; outer holds the columns of the blocks enclosing it
// (the bases of the GMDJs whose detail it is part of).
func (p *pusher) push(n algebra.Node, outer *relation.Schema) (algebra.Node, error) {
	switch t := n.(type) {
	case *algebra.Restrict:
		moved, err := p.pushRestrict(t)
		if err != nil {
			return nil, err
		}
		if moved != nil {
			return p.push(moved, outer)
		}
	case *algebra.GMDJ:
		return p.pushGMDJ(t, outer)
	}
	return algebra.MapInputs(n, func(in algebra.Node) (algebra.Node, error) { return p.push(in, outer) })
}

// conjuncts returns a plain selection's condition as its conjuncts; ok
// is false for one that holds a subquery predicate.
func conjuncts(r *algebra.Restrict) (terms []expr.Expr, ok bool) {
	e, err := algebra.PredExpr(r.Where)
	if err != nil {
		return nil, false
	}
	return expr.Conjuncts(e), true
}

// pushRestrict merges σ into a selection directly below it, or applies
// rule (b) to a GMDJ directly below it. It returns nil when σ stays as
// it is.
func (p *pusher) pushRestrict(r *algebra.Restrict) (algebra.Node, error) {
	sel, ok := conjuncts(r)
	if !ok {
		return nil, nil
	}
	switch in := r.Input.(type) {
	case *algebra.Restrict:
		if below, ok := conjuncts(in); ok {
			return algebra.Filter(in.Input, expr.Conj(append(below, sel...))), nil
		}
	case *algebra.GMDJ:
		if in.Completion != nil {
			return nil, nil // σ[C](MD) is already paired up; leave the pair whole
		}
		baseS, err := in.Base.Schema(p.res)
		if err != nil {
			return nil, err
		}
		aggS := relation.NewSchema(algebra.AggColumns(in.Conds)...)
		var down, stay []expr.Expr
		for _, c := range sel {
			if side, err := algebra.ConjunctSide(c, baseS, aggS); err == nil && side == algebra.SideBase {
				down = append(down, c)
			} else {
				stay = append(stay, c)
			}
		}
		if len(down) == 0 {
			return nil, nil
		}
		var out algebra.Node = algebra.NewGMDJ(algebra.Filter(in.Base, expr.Conj(down)), in.Detail, in.Conds...)
		if len(stay) > 0 {
			out = algebra.Filter(out, expr.Conj(stay))
		}
		return out, nil
	}
	return nil, nil
}

// pushGMDJ applies rule (a) to g and rewrites its inputs.
func (p *pusher) pushGMDJ(g *algebra.GMDJ, outer *relation.Schema) (algebra.Node, error) {
	baseS, err := g.Base.Schema(p.res)
	if err != nil {
		return nil, err
	}
	detailS, err := g.Detail.Schema(p.res)
	if err != nil {
		return nil, err
	}
	detail, conds := g.Detail, g.Conds
	if common := commonDetailConjuncts(g.Conds, baseS, detailS, outer); len(common) > 0 {
		detail = algebra.Filter(detail, expr.Conj(common))
		conds = make([]algebra.GMDJCond, len(g.Conds))
		for i, c := range g.Conds {
			rest := slices.DeleteFunc(expr.Conjuncts(c.Theta), func(e expr.Expr) bool { return containsExpr(common, e) })
			conds[i] = algebra.GMDJCond{Theta: expr.Conj(rest), Aggs: c.Aggs}
		}
	}
	base, err := p.push(g.Base, outer)
	if err != nil {
		return nil, err
	}
	if detail, err = p.push(detail, outer.Concat(baseS)); err != nil {
		return nil, err
	}
	out := algebra.NewGMDJ(base, detail, conds...)
	out.Completion = g.Completion
	return out, nil
}

// commonDetailConjuncts returns the conjuncts rule (a) may move: those
// of the first θ that read the detail alone (algebra.SplitTheta's right
// class), name no column of an enclosing block, and occur in every
// other θ. A θ that fails to split moves nothing; the evaluator reports
// it.
func commonDetailConjuncts(conds []algebra.GMDJCond, baseS, detailS, outer *relation.Schema) []expr.Expr {
	if len(conds) == 0 {
		return nil
	}
	split, err := algebra.SplitTheta(conds[0].Theta, baseS, detailS)
	if err != nil {
		return nil
	}
	scope := outer.Concat(detailS)
	var common []expr.Expr
	for _, c := range split.Right {
		if containsExpr(common, c) {
			continue
		}
		// One match in outer ++ detail is the detail's: no enclosing block
		// has the name.
		captured := slices.ContainsFunc(expr.Cols(c), func(col *expr.Col) bool {
			return !algebra.Resolves(col, scope)
		})
		if !captured {
			common = append(common, c)
		}
	}
	for _, other := range conds[1:] {
		theirs := expr.Conjuncts(other.Theta)
		common = slices.DeleteFunc(common, func(c expr.Expr) bool { return !containsExpr(theirs, c) })
	}
	return common
}

// containsExpr reports whether list holds an expression structurally
// equal to e: same operators, columns and literals of the same kind
// (x > 1 and x > 1.0 print alike and are not the same expression).
// A FLOAT literal compares by its payload bits, so x > 0.0 and
// x > -0.0 are two conjuncts and a NaN literal equals itself. Both are
// safe: a conjunct no other θ shares just stays in its own θ
// (TestPushSelectionsFloatLiterals).
func containsExpr(list []expr.Expr, e expr.Expr) bool {
	return slices.ContainsFunc(list, func(x expr.Expr) bool { return reflect.DeepEqual(x, e) })
}
