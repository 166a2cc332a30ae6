package expr

// Conjuncts flattens nested conjunctions into a list of terms. A
// non-AND expression is its own single conjunct. The rewriter and
// algebra.SplitTheta both work conjunct by conjunct.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, t := range a.Terms {
			out = append(out, Conjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// Conj rebuilds a conjunction from terms; an empty list yields TRUE.
func Conj(terms []Expr) Expr {
	switch len(terms) {
	case 0:
		return TrueExpr()
	case 1:
		return terms[0]
	default:
		return &And{Terms: terms}
	}
}

// Walk visits e and all descendants in pre-order, stopping a branch
// when fn returns false.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// Cols returns every column reference in e, in visit order.
func Cols(e Expr) []*Col {
	var out []*Col
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// RenameQualifier returns a copy of e with every column reference whose
// qualifier is `from` re-qualified to `to`. Bound indices are
// discarded (the caller re-binds against the new schema).
func RenameQualifier(e Expr, from, to string) Expr {
	return Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*Col); ok && c.Qualifier == from {
			return NewCol(to, c.Name)
		}
		return x
	})
}

// Rewrite rebuilds the tree bottom-up, replacing each node by fn(node).
// fn receives a node whose children are already rewritten.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *Col, *Lit, *Param:
		return fn(e)
	case *Arith:
		return fn(&Arith{Op: n.Op, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)})
	case *Cmp:
		return fn(&Cmp{Op: n.Op, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)})
	case *And:
		terms := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = Rewrite(t, fn)
		}
		return fn(&And{Terms: terms})
	case *Or:
		terms := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = Rewrite(t, fn)
		}
		return fn(&Or{Terms: terms})
	case *Not:
		return fn(&Not{E: Rewrite(n.E, fn)})
	case *IsNull:
		return fn(&IsNull{E: Rewrite(n.E, fn), Negated: n.Negated})
	case *Like:
		return fn(&Like{E: Rewrite(n.E, fn), Pattern: n.Pattern, Negated: n.Negated})
	default:
		return fn(e)
	}
}

// Clone deep-copies an expression tree, dropping bound indices on
// columns (use Bind to re-resolve).
func Clone(e Expr) Expr {
	return Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*Col); ok {
			return NewCol(c.Qualifier, c.Name)
		}
		return x
	})
}
