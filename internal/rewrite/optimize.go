package rewrite

import (
	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/value"
)

// Optimize applies the §4 GMDJ optimizations to a rewritten plan:
// coalescing of adjacent GMDJs over the same detail table (Proposition
// 4.1, including the selection push-up of Example 4.1), selection
// push-down through the GMDJs that remain (PushSelections), and
// tuple-completion detection (Theorems 4.1/4.2). The order matters:
// coalescing matches bare detail scans, which push-down would cover
// with selections, and push-down leaves behind the bare σ[C](MD) pairs
// completion detection looks for. The result computes the same bag as
// the input plan.
func Optimize(plan algebra.Node, res algebra.SchemaResolver) (algebra.Node, error) {
	out, err := Coalesce(plan, res)
	if err != nil {
		return nil, err
	}
	if out, err = PushSelections(out, res); err != nil {
		return nil, err
	}
	return AttachCompletion(out), nil
}

// ---------------------------------------------------------------------------
// Coalescing (Proposition 4.1)

// Coalesce merges stacks of GMDJs that share the same detail table into
// single multi-condition GMDJs, hoisting intervening count selections
// up through the GMDJ (σ commutes with MD when the selection condition
// ranges over base columns only, which count selections always do).
// After coalescing, all merged subqueries are answered in one scan of
// the shared detail table.
func Coalesce(plan algebra.Node, res algebra.SchemaResolver) (algebra.Node, error) {
	if g, ok := plan.(*algebra.GMDJ); ok {
		return coalesceGMDJ(g, res)
	}
	out, err := algebra.MapInputs(plan, func(in algebra.Node) (algebra.Node, error) { return Coalesce(in, res) })
	if err != nil {
		return nil, err
	}
	if r, ok := out.(*algebra.Restrict); ok {
		return algebra.NewRestrict(r.Input, coalescePred(r.Where, res)), nil
	}
	return out, nil
}

// coalescePred recurses into subquery sources inside predicates.
func coalescePred(p algebra.Pred, res algebra.SchemaResolver) algebra.Pred {
	switch n := p.(type) {
	case *algebra.PredAnd:
		terms := make([]algebra.Pred, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = coalescePred(t, res)
		}
		return &algebra.PredAnd{Terms: terms}
	case *algebra.PredOr:
		terms := make([]algebra.Pred, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = coalescePred(t, res)
		}
		return &algebra.PredOr{Terms: terms}
	case *algebra.PredNot:
		return &algebra.PredNot{P: coalescePred(n.P, res)}
	case *algebra.SubPred:
		src, err := Coalesce(n.Sub.Source, res)
		if err != nil {
			return p
		}
		return &algebra.SubPred{Kind: n.Kind, Op: n.Op, Left: n.Left, Sub: &algebra.Subquery{
			Source: src,
			Where:  coalescePred(n.Sub.Where, res),
			OutCol: n.Sub.OutCol,
			Agg:    n.Sub.Agg,
		}}
	default:
		return p
	}
}

// wrapper is one peeled operator sitting between an outer GMDJ and an
// inner GMDJ candidate: a count selection or a plain column projection.
type wrapper struct {
	restrict *algebra.Restrict
	project  *algebra.Project
}

func coalesceGMDJ(g *algebra.GMDJ, res algebra.SchemaResolver) (algebra.Node, error) {
	m, err := algebra.MapInputs(g, func(in algebra.Node) (algebra.Node, error) { return Coalesce(in, res) })
	if err != nil {
		return nil, err
	}
	cur := m.(*algebra.GMDJ)

	// Peel selections (σ commutes up through MD unconditionally — its
	// condition ranges over base columns only) and plain column
	// projections (π commutes when it keeps every base column the outer
	// conditions reference; the projection is re-targeted to also carry
	// the outer aggregate columns upward).
	inner := algebra.Node(cur.Base)
	var wraps []wrapper
peel:
	for {
		switch w := inner.(type) {
		case *algebra.Restrict:
			if algebra.HasSubquery(w.Where) {
				break peel
			}
			wraps = append(wraps, wrapper{restrict: w})
			inner = w.Input
		case *algebra.Project:
			if w.Distinct {
				break peel
			}
			for _, it := range w.Items {
				if _, ok := it.E.(*expr.Col); !ok || it.As != "" {
					break peel
				}
			}
			wraps = append(wraps, wrapper{project: w})
			inner = w.Input
		default:
			break peel
		}
	}
	ig, ok := inner.(*algebra.GMDJ)
	if !ok || ig.Completion != nil {
		return cur, nil
	}
	rename, same := sameDetail(ig.Detail, cur.Detail)
	if !same {
		return cur, nil
	}
	// The outer conditions (θs and aggregate arguments) must not
	// reference the inner GMDJ's aggregate outputs (merging would change
	// their meaning), and every base-side column they reference must
	// survive each peeled projection.
	innerAggs := aggNames(ig)
	detailAlias := ""
	if sc, isScan := cur.Detail.(*algebra.Scan); isScan {
		detailAlias = sc.EffectiveAlias()
	}
	for _, c := range condCols(cur.Conds) {
		if c.Qualifier == "" && innerAggs[c.Name] {
			return cur, nil
		}
		if c.Qualifier == detailAlias {
			continue // detail-side reference, unaffected by base wraps
		}
		for _, w := range wraps {
			if w.project != nil && !projectKeeps(w.project, c) {
				return cur, nil
			}
		}
	}
	// Merge: rename the outer conditions' detail qualifier to the inner
	// detail's alias and append them.
	merged := append([]algebra.GMDJCond{}, ig.Conds...)
	var outerAggCols []algebra.ProjItem
	for _, c := range cur.Conds {
		theta := c.Theta
		if rename != nil {
			theta = expr.RenameQualifier(theta, rename.from, rename.to)
		}
		aggs := make([]agg.Spec, len(c.Aggs))
		for i, a := range c.Aggs {
			arg := a.Arg
			if arg != nil && rename != nil {
				arg = expr.RenameQualifier(arg, rename.from, rename.to)
			}
			aggs[i] = agg.Spec{Func: a.Func, Arg: arg, As: a.As}
			if a.As != "" {
				outerAggCols = append(outerAggCols, algebra.ProjItem{E: expr.NewCol("", a.As)})
			}
		}
		merged = append(merged, algebra.GMDJCond{Theta: theta, Aggs: aggs})
	}
	next := algebra.NewGMDJ(ig.Base, ig.Detail, merged...)
	// Re-apply wrappers innermost-first; projections additionally carry
	// the outer aggregate columns upward.
	var result algebra.Node = next
	for i := len(wraps) - 1; i >= 0; i-- {
		w := wraps[i]
		if w.restrict != nil {
			result = algebra.NewRestrict(result, w.restrict.Where)
			continue
		}
		items := append(append([]algebra.ProjItem{}, w.project.Items...), outerAggCols...)
		result = algebra.NewProject(result, false, items...)
	}
	if rg, isG := result.(*algebra.GMDJ); isG {
		return coalesceGMDJ(rg, res) // merge further down
	}
	return Coalesce(result, res)
}

// projectKeeps reports whether a plain-column projection preserves the
// referenced column identity.
func projectKeeps(p *algebra.Project, c *expr.Col) bool {
	for _, it := range p.Items {
		if pc, ok := it.E.(*expr.Col); ok && it.As == "" &&
			pc.Name == c.Name && (c.Qualifier == "" || pc.Qualifier == c.Qualifier) {
			return true
		}
	}
	return false
}

type renameSpec struct{ from, to string }

// sameDetail reports whether two detail plans scan the same base table,
// and if their aliases differ, how to rename the second to the first.
func sameDetail(a, b algebra.Node) (*renameSpec, bool) {
	sa, ok := a.(*algebra.Scan)
	if !ok {
		return nil, false
	}
	sb, ok := b.(*algebra.Scan)
	if !ok {
		return nil, false
	}
	if sa.Table != sb.Table {
		return nil, false
	}
	if sa.EffectiveAlias() == sb.EffectiveAlias() {
		return nil, true
	}
	return &renameSpec{from: sb.EffectiveAlias(), to: sa.EffectiveAlias()}, true
}

// aggNames returns the set of aggregate output names of a GMDJ.
func aggNames(g *algebra.GMDJ) map[string]bool {
	out := map[string]bool{}
	for _, c := range algebra.AggColumns(g.Conds) {
		out[c.Name] = true
	}
	return out
}

// ---------------------------------------------------------------------------
// Tuple completion (Theorems 4.1 / 4.2)

// AttachCompletion scans the plan for σ[C](MD(...)) patterns where C is
// a boolean combination of count atoms (cnt = 0, cnt > 0, cnt <> 0,
// cnt >= 1) over the GMDJ's count(*) outputs, and attaches a
// CompletionInfo to the GMDJ. Early True emission (freezing) is enabled
// only when no aggregate column of the GMDJ is referenced above the
// selection — Theorem 4.1's A ∩ (l₁ ∪ … ∪ lₘ) = ∅ requirement.
func AttachCompletion(plan algebra.Node) algebra.Node {
	return attach(plan, map[string]bool{})
}

// attach rewrites the plan top-down; above carries the column names
// referenced by enclosing operators (reset at projection boundaries),
// an enclosing GMDJ's conditions included.
func attach(n algebra.Node, above map[string]bool) algebra.Node {
	sub := above
	switch node := n.(type) {
	case *algebra.Restrict:
		sub = union(above, predColNames(node.Where))
		if g, ok := node.Input.(*algebra.GMDJ); ok && g.Completion == nil {
			if atom, isAtom := node.Where.(*algebra.Atom); isAtom {
				if info, ok := buildCompletion(atom.E, g, above); ok {
					g2 := attach(g, sub).(*algebra.GMDJ)
					g2.Completion = info
					return algebra.NewRestrict(g2, node.Where)
				}
			}
		}
	case *algebra.Project:
		sub = map[string]bool{}
		for _, it := range node.Items {
			for _, c := range expr.Cols(it.E) {
				sub[c.Name] = true
			}
		}
	case *algebra.Join:
		sub = union(above, exprColNames(node.On))
	case *algebra.GroupBy:
		sub = map[string]bool{}
		for _, k := range node.Keys {
			sub[k.Name] = true
		}
		for _, a := range node.Aggs {
			if a.Arg != nil {
				for _, c := range expr.Cols(a.Arg) {
					sub[c.Name] = true
				}
			}
		}
	case *algebra.GMDJ:
		sub = union(above, condColNames(node.Conds))
	case *algebra.Sort:
		for _, k := range node.Keys {
			sub = union(sub, exprColNames(k.E))
		}
	}
	out, _ := algebra.MapInputs(n, func(in algebra.Node) (algebra.Node, error) { return attach(in, sub), nil }) // fn never fails
	return out
}

// buildCompletion parses a selection condition into a completion
// formula over the GMDJ's count(*) outputs.
func buildCompletion(sel expr.Expr, g *algebra.GMDJ, above map[string]bool) (*algebra.CompletionInfo, bool) {
	// Map count column name -> condition index (only lone count(*)
	// aggregates are watchable: their first match is the decision
	// event).
	countCols := map[string]int{}
	for i, c := range g.Conds {
		if len(c.Aggs) == 1 && c.Aggs[0].Func == agg.CountStar && c.Aggs[0].As != "" {
			countCols[c.Aggs[0].As] = i
		}
	}
	if len(countCols) == 0 {
		return nil, false
	}
	var atoms []algebra.CompletionAtom
	atomIdx := map[[2]int]int{} // (cond, kind) -> atom index
	var usable bool
	var parse func(e expr.Expr) *algebra.BoolTree
	parse = func(e expr.Expr) *algebra.BoolTree {
		switch x := e.(type) {
		case *expr.And:
			kids := make([]*algebra.BoolTree, len(x.Terms))
			for i, t := range x.Terms {
				kids[i] = parse(t)
			}
			return algebra.AndTree(kids...)
		case *expr.Or:
			kids := make([]*algebra.BoolTree, len(x.Terms))
			for i, t := range x.Terms {
				kids[i] = parse(t)
			}
			return algebra.OrTree(kids...)
		case *expr.Not:
			return algebra.NotTree(parse(x.E))
		case *expr.Cmp:
			cond, kind, ok := parseCountAtom(x, countCols)
			if !ok {
				return algebra.OpaqueTree()
			}
			key := [2]int{cond, int(kind)}
			idx, seen := atomIdx[key]
			if !seen {
				idx = len(atoms)
				atoms = append(atoms, algebra.CompletionAtom{Cond: cond, Kind: kind})
				atomIdx[key] = idx
			}
			usable = true
			return algebra.Leaf(idx)
		default:
			return algebra.OpaqueTree()
		}
	}
	tree := parse(sel)
	if !usable {
		return nil, false
	}
	// Freezing requires no aggregate output to be consumed upstream.
	freeze := true
	for name := range aggNames(g) {
		if above[name] {
			freeze = false
			break
		}
	}
	return &algebra.CompletionInfo{Atoms: atoms, Tree: tree, FreezeTrue: freeze}, true
}

// parseCountAtom recognizes cnt = 0 (Zero), cnt > 0, cnt <> 0, and
// cnt >= 1 (NonZero), in either operand order.
func parseCountAtom(c *expr.Cmp, countCols map[string]int) (int, algebra.AtomKind, bool) {
	col, lit, op := (*expr.Col)(nil), (*expr.Lit)(nil), c.Op
	if cc, ok := c.L.(*expr.Col); ok {
		if ll, ok2 := c.R.(*expr.Lit); ok2 {
			col, lit = cc, ll
		}
	}
	if col == nil {
		if cc, ok := c.R.(*expr.Col); ok {
			if ll, ok2 := c.L.(*expr.Lit); ok2 {
				col, lit, op = cc, ll, c.Op.Flip()
			}
		}
	}
	if col == nil || col.Qualifier != "" || lit.V.Kind() != value.KindInt {
		return 0, 0, false
	}
	cond, ok := countCols[col.Name]
	if !ok {
		return 0, 0, false
	}
	n := lit.V.AsInt()
	switch {
	case op == value.EQ && n == 0:
		return cond, algebra.AtomZero, true
	case op == value.GT && n == 0, op == value.NE && n == 0, op == value.GE && n == 1:
		return cond, algebra.AtomNonZero, true
	case op == value.LE && n == 0:
		return cond, algebra.AtomZero, true
	default:
		return 0, 0, false
	}
}

func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func exprColNames(e expr.Expr) map[string]bool {
	out := map[string]bool{}
	for _, c := range expr.Cols(e) {
		out[c.Name] = true
	}
	return out
}

func condColNames(conds []algebra.GMDJCond) map[string]bool {
	out := map[string]bool{}
	for _, c := range condCols(conds) {
		out[c.Name] = true
	}
	return out
}

func predColNames(p algebra.Pred) map[string]bool {
	out := map[string]bool{}
	algebra.WalkPred(p, func(q algebra.Pred) bool {
		switch n := q.(type) {
		case *algebra.Atom:
			for _, c := range expr.Cols(n.E) {
				out[c.Name] = true
			}
		case *algebra.SubPred:
			if n.Left != nil {
				for _, c := range expr.Cols(n.Left) {
					out[c.Name] = true
				}
			}
		}
		return true
	})
	return out
}
