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
//     the referenced outer base table down into the offending block's
//     base (Theorems 3.3/3.4), with a fresh alias and a glue equality
//     added one level up — introducing exactly the n−1 joins the paper
//     proves necessary.
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
	"github.com/olaplab/gmdj/internal/relation"
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
	return rw.rewriteNode(plan)
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

// rewriteNode walks the plan, transforming subquery-bearing Restricts.
func (rw *rewriter) rewriteNode(n algebra.Node) (algebra.Node, error) {
	out, err := algebra.MapInputs(n, rw.rewriteNode)
	if err != nil {
		return nil, err
	}
	if r, ok := out.(*algebra.Restrict); ok {
		return rw.rewriteRestrict(r.Input, r.Where)
	}
	return out, nil
}

// rewriteRestrict is the top-level entry of the algorithm: it receives
// the (already rewritten) input B and the predicate W of σ[W](B).
func (rw *rewriter) rewriteRestrict(input algebra.Node, w algebra.Pred) (algebra.Node, error) {
	w = algebra.PushDownNegations(w)
	if !algebra.HasSubquery(w) {
		return algebra.NewRestrict(input, w), nil
	}
	inSchema, err := input.Schema(rw.res)
	if err != nil {
		return nil, err
	}
	base, w2, err := rw.eliminate(input, inSchema, w, nil)
	if err != nil {
		return nil, err
	}
	sel, err := algebra.PredExpr(w2)
	if err != nil {
		return nil, err
	}
	filtered := algebra.Filter(base, sel)
	// Project back to the original schema (drop the count columns).
	items := make([]algebra.ProjItem, inSchema.Len())
	for i, c := range inSchema.Columns {
		items[i] = algebra.ProjItem{E: expr.NewCol(c.Qualifier, c.Name)}
	}
	return algebra.NewProject(filtered, false, items...), nil
}

// envEntry is one enclosing block visible to a nested subquery: the
// block's base plan and its schema. Free references into it are
// repaired by push-down.
type envEntry struct {
	node   algebra.Node
	schema *relation.Schema
}

// eliminate removes every subquery predicate from w by stacking GMDJs
// on top of base. It returns the stacked plan and the rewritten
// predicate. env lists the enclosing blocks (outermost first) for
// non-neighboring repair; glue conjuncts needed by the caller are
// appended to *w2* by the caller via lift — at the top level env is nil
// and any remaining free reference is an error.
func (rw *rewriter) eliminate(base algebra.Node, baseSchema *relation.Schema, w algebra.Pred, env []envEntry) (algebra.Node, algebra.Pred, error) {
	type pending struct {
		sp     *algebra.SubPred
		detail algebra.Node
		conds  []algebra.GMDJCond
		repl   expr.Expr
	}
	var work []pending
	collect := func(p algebra.Pred) {
		algebra.WalkPred(p, func(q algebra.Pred) bool {
			if sp, ok := q.(*algebra.SubPred); ok {
				work = append(work, pending{sp: sp})
			}
			return true
		})
	}
	collect(w)

	envForNested := append(append([]envEntry{}, env...), envEntry{node: base, schema: baseSchema})

	cur := base
	replacements := map[*algebra.SubPred]algebra.Pred{}
	for i := range work {
		p := &work[i]
		detail, theta, err := rw.lift(p.sp.Sub, envForNested)
		if err != nil {
			return nil, nil, err
		}
		conds, repl, err := rw.table1(p.sp, theta)
		if err != nil {
			return nil, nil, err
		}
		// Free-reference check: θ must range over base ∪ detail.
		detailSchema, err := detail.Schema(rw.res)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range condCols(conds) {
			if resolvesIn(c, baseSchema) || resolvesIn(c, detailSchema) {
				continue
			}
			return nil, nil, fmt.Errorf("rewrite: free reference %s cannot be resolved at the outermost block", c)
		}
		g := algebra.NewGMDJ(cur, detail, conds...)
		cur = g
		// base schema grows by the new aggregate columns; recompute so
		// later free-reference checks see them.
		baseSchema, err = cur.Schema(rw.res)
		if err != nil {
			return nil, nil, err
		}
		replacements[p.sp] = &algebra.Atom{E: repl}
	}
	w2 := substitute(w, replacements)
	return cur, w2, nil
}

// lift converts a subquery block S into (detail plan, θ condition) for
// use in an enclosing GMDJ (Theorem 3.2). Nested subqueries inside S's
// predicate are themselves eliminated by stacking GMDJs over S's
// source. Non-neighboring references are repaired here: the referenced
// enclosing base is pushed (cross-joined, freshly aliased) into S's
// source and a glue equality is appended to the returned θ.
func (rw *rewriter) lift(sub *algebra.Subquery, env []envEntry) (algebra.Node, expr.Expr, error) {
	source := sub.Source
	srcSchema, err := source.Schema(rw.res)
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
	envForNested := append(append([]envEntry{}, env...), envEntry{node: source, schema: srcSchema})
	for _, sp := range nested {
		d, theta, err := rw.lift(sp.Sub, envForNested)
		if err != nil {
			return nil, nil, err
		}
		conds, repl, err := rw.table1(sp, theta)
		if err != nil {
			return nil, nil, err
		}
		lifted = append(lifted, liftedSub{sp: sp, detail: d, conds: conds, repl: repl})
	}

	// Non-neighboring repair (Theorems 3.3/3.4): any condition column
	// that resolves neither in this block's source nor in its own
	// detail must come from an enclosing block — push that block's base
	// down into source under a fresh alias and remember the glue.
	var glue []expr.Expr
	pushed := map[*envEntry]string{} // env entry -> fresh alias
	for i := range lifted {
		ls := &lifted[i]
		dSchema, err := ls.detail.Schema(rw.res)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range condCols(ls.conds) {
			if resolvesIn(c, srcSchema) || resolvesIn(c, dSchema) {
				continue
			}
			// Find the enclosing block providing this column.
			entry := findEnv(env, c)
			if entry == nil {
				return nil, nil, fmt.Errorf("rewrite: free reference %s resolves in no enclosing block", c)
			}
			alias, ok := pushed[entry]
			if !ok {
				alias = rw.fresh("pd")
				pushed[entry] = alias
				copyNode := algebra.NewAlias(entry.node, alias)
				source = algebra.NewJoin(algebra.InnerJoin, copyNode, source, expr.TrueExpr())
				srcSchema, err = source.Schema(rw.res)
				if err != nil {
					return nil, nil, err
				}
				// Glue: every column of the pushed block must agree
				// between the enclosing base and the pushed copy.
				for _, col := range entry.schema.Columns {
					glue = append(glue, expr.Eq(
						expr.NewCol(col.Qualifier, col.Name),
						expr.NewCol(alias, col.Name),
					))
				}
			}
			// Re-qualify the free reference to the pushed copy in all
			// of this lifted sub's conditions.
			for ci := range ls.conds {
				ls.conds[ci].Theta = expr.RenameQualifier(ls.conds[ci].Theta, c.Qualifier, alias)
			}
		}
	}

	// Stack the GMDJs for nested subqueries over the (possibly
	// augmented) source, and substitute count conditions into pred.
	cur := source
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
	if len(glue) > 0 {
		theta = expr.NewAnd(append([]expr.Expr{theta}, glue...)...)
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

// condCols lists every column referenced by a condition list.
func condCols(conds []algebra.GMDJCond) []*expr.Col {
	var out []*expr.Col
	for _, c := range conds {
		out = append(out, expr.Cols(c.Theta)...)
	}
	return out
}

func resolvesIn(c *expr.Col, s *relation.Schema) bool {
	_, err := s.Find(c.Qualifier, c.Name)
	return err == nil
}

func findEnv(env []envEntry, c *expr.Col) *envEntry {
	// Innermost enclosing block wins.
	for i := len(env) - 1; i >= 0; i-- {
		if resolvesIn(c, env[i].schema) {
			return &env[i]
		}
	}
	return nil
}

// substitute replaces subquery predicates by their count conditions.
func substitute(p algebra.Pred, repl map[*algebra.SubPred]algebra.Pred) algebra.Pred {
	switch n := p.(type) {
	case *algebra.Atom:
		return n
	case *algebra.PredAnd:
		terms := make([]algebra.Pred, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = substitute(t, repl)
		}
		return &algebra.PredAnd{Terms: terms}
	case *algebra.PredOr:
		terms := make([]algebra.Pred, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = substitute(t, repl)
		}
		return &algebra.PredOr{Terms: terms}
	case *algebra.PredNot:
		return &algebra.PredNot{P: substitute(n.P, repl)}
	case *algebra.SubPred:
		if r, ok := repl[n]; ok {
			return r
		}
		return n
	default:
		return p
	}
}
