package exec

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// compilePred compiles a predicate tree against the outer schema — the
// rows of the block it filters — into one expr.Pred, each
// subquery predicate a leaf of it (cpSub). Subquery sources are
// materialized once — the "reuse of invariants" refinement — and their
// correlation predicates are compiled against outer ++ inner. The
// query state q rides along so subquery evaluation loops stay
// governed.
func (e *Executor) compilePred(p algebra.Pred, outer *relation.Schema, q *query) (*expr.Pred, error) {
	var err error
	p = algebra.MapPred(p, func(p algebra.Pred) algebra.Pred {
		if sp, ok := p.(*algebra.SubPred); ok && err == nil {
			var leaf *cpSub
			leaf, err = e.compileSubPred(sp, outer, q)
			return &algebra.Atom{E: leaf}
		}
		return p
	})
	var x expr.Expr
	if err == nil {
		x, err = algebra.PredExpr(p)
	}
	if err == nil {
		x, err = x.Bind(outer)
	}
	if err != nil {
		return nil, err
	}
	return expr.Compile(x), nil
}

// accessPath is an optional index acceleration for one subquery: probe
// an equality index and/or narrow a range via a sorted index, instead
// of scanning all inner rows per outer tuple.
type accessPath struct {
	hash    *storage.HashIndex
	hashKey expr.Expr // bound to outer schema; evaluated per outer row

	sorted         *storage.SortedIndex
	lo, hi         expr.Expr // bounds over outer schema (nil = open)
	loIncl, hiIncl bool
}

// cpSub evaluates one subquery predicate with tuple-iteration
// semantics.
type cpSub struct {
	kind algebra.SubKind
	op   value.CmpOp
	left expr.Expr // bound to outer schema; nil for EXISTS kinds

	inner     *relation.Relation // materialized subquery source
	innerPred *expr.Pred         // compiled against outer ++ inner; nil = TRUE
	outPos    int                // position of OutCol in inner schema; -1
	aggSpec   *agg.Spec          // bound against outer ++ inner; nil unless aggregate subquery
	outerW    int
	innerW    int
	path      *accessPath
	memo      *subqueryMemo // non-nil when invariant reuse is enabled
	q         *query        // governance: ticks in the inner-row loops
}

// evalSubquerySource materializes a subquery's source relation.
// Sources are resolved standalone — they can never reference the outer
// scope (sql/resolve.go resolves them against their own schema only) —
// so a source materialization is an invariant of the whole query. A
// derived source (anything beyond a bare scan) is new state and is
// charged to the query's reservation (chargeSubquery).
func (e *Executor) evalSubquerySource(src algebra.Node, q *query) (*relation.Relation, error) {
	rel, err := e.eval(src, newEnv(q))
	if err == nil && derivedSource(src) {
		e.chargeSubquery(q, rel)
	}
	return rel, err
}

// chargeSubquery accounts a materialized subquery source against the
// query's reservation, best-effort: the relation already exists by the
// time its size is known, so on exhaustion there is nothing to spill —
// the overcommit is recorded (mem.subquery_overcommit) and the query
// proceeds.
func (e *Executor) chargeSubquery(q *query, rel *relation.Relation) {
	t := q.tracker("subquery")
	if t == nil {
		return
	}
	var bytes int64
	for _, row := range rel.Rows {
		bytes += row.ApproxBytes()
	}
	if err := t.Grow(bytes); err != nil {
		e.subqueryOvercommit.Add(1)
	}
}

// derivedSource reports whether materializing src builds new rows:
// bare table scans (and aliases over them) share the table's rows and
// hold nothing of their own.
func derivedSource(src algebra.Node) bool {
	switch t := src.(type) {
	case *algebra.Scan, *algebra.Raw:
		return false
	case *algebra.Alias:
		return derivedSource(t.Input)
	default:
		return true
	}
}

func (e *Executor) compileSubPred(sp *algebra.SubPred, outer *relation.Schema, q *query) (*cpSub, error) {
	if err := q.fire(sp.Sub.Source, "exec.subquery"); err != nil {
		return nil, err
	}
	inner, err := e.evalSubquerySource(sp.Sub.Source, q)
	if err != nil {
		return nil, err
	}
	cs := &cpSub{
		kind:   sp.Kind,
		op:     sp.Op,
		outPos: -1,
		inner:  inner,
		outerW: outer.Len(),
		innerW: inner.Schema.Len(),
		q:      q,
	}
	if sp.Left != nil {
		b, err := sp.Left.Bind(outer)
		if err != nil {
			return nil, fmt.Errorf("exec: binding subquery operand %s: %w", sp.Left, err)
		}
		cs.left = b
	}
	combined := outer.Concat(inner.Schema)
	if sp.Sub.Where != nil {
		cp, err := e.compilePred(sp.Sub.Where, combined, q)
		if err != nil {
			return nil, err
		}
		cs.innerPred = cp
	}
	if sp.Sub.OutCol != nil {
		pos, err := inner.Schema.Find(sp.Sub.OutCol.Qualifier, sp.Sub.OutCol.Name)
		if err != nil {
			return nil, err
		}
		cs.outPos = pos
	}
	if sp.Sub.Agg != nil {
		bound, err := sp.Sub.Agg.Bind(combined)
		if err != nil {
			return nil, err
		}
		cs.aggSpec = &bound
	}
	switch sp.Kind {
	case algebra.CmpSome, algebra.CmpAll:
		if cs.outPos < 0 {
			return nil, fmt.Errorf("exec: %v subquery requires an output column", sp.Kind)
		}
	case algebra.ScalarCmp:
		if cs.outPos < 0 && cs.aggSpec == nil {
			return nil, fmt.Errorf("exec: scalar subquery requires an output column or aggregate")
		}
	}
	if e.UseIndexes {
		cs.path = e.findAccessPath(sp, outer, inner.Schema)
	}
	if e.MemoizeSubqueries {
		if memo, ok := newSubqueryMemo(sp, outer); ok {
			cs.memo = memo
		}
	}
	return cs, nil
}

// findAccessPath inspects the subquery's correlation condition for
// conjuncts of the form innerCol = outerExpr (hash index) or
// innerCol φ outerExpr with φ a range operator (sorted index), where
// the source is a base-table scan carrying a matching index.
func (e *Executor) findAccessPath(sp *algebra.SubPred, outer, innerSchema *relation.Schema) *accessPath {
	scan, ok := sp.Sub.Source.(*algebra.Scan)
	if !ok {
		return nil
	}
	tbl, err := e.Cat.Table(scan.Table)
	if err != nil {
		return nil
	}
	atom, ok := sp.Sub.Where.(*algebra.Atom)
	if !ok {
		// Conjunctive tops are common too.
		if a, isAnd := sp.Sub.Where.(*algebra.PredAnd); isAnd {
			// Synthesize a pseudo-atom from the expr-only terms.
			var exprs []expr.Expr
			for _, t := range a.Terms {
				if at, isAtom := t.(*algebra.Atom); isAtom {
					exprs = append(exprs, at.E)
				}
			}
			if len(exprs) == 0 {
				return nil
			}
			atom = &algebra.Atom{E: expr.Conj(exprs)}
		} else {
			return nil
		}
	}
	resolvesInner := func(c *expr.Col) (string, bool) {
		if _, err := innerSchema.Find(c.Qualifier, c.Name); err != nil {
			return "", false
		}
		return c.Name, true
	}
	outerOnly := func(x expr.Expr) bool {
		for _, c := range expr.Cols(x) {
			if _, err := outer.Find(c.Qualifier, c.Name); err != nil {
				return false
			}
		}
		return true
	}
	var path accessPath
	for _, cj := range expr.Conjuncts(atom.E) {
		cmp, ok := cj.(*expr.Cmp)
		if !ok {
			continue
		}
		// Normalize to innerCol φ outerExpr.
		var innerCol *expr.Col
		var rhs expr.Expr
		op := cmp.Op
		if c, ok := cmp.L.(*expr.Col); ok {
			if _, isInner := resolvesInner(c); isInner && outerOnly(cmp.R) {
				innerCol, rhs = c, cmp.R
			}
		}
		if innerCol == nil {
			if c, ok := cmp.R.(*expr.Col); ok {
				if _, isInner := resolvesInner(c); isInner && outerOnly(cmp.L) {
					innerCol, rhs, op = c, cmp.L, cmp.Op.Flip()
				}
			}
		}
		if innerCol == nil {
			continue
		}
		boundRHS, err := rhs.Bind(outer)
		if err != nil {
			continue
		}
		switch op {
		case value.EQ:
			if path.hash == nil {
				if ix, ok := tbl.HashIndexOn(innerCol.Name); ok {
					path.hash = ix
					path.hashKey = boundRHS
				}
			}
		case value.GE, value.GT:
			if ix, ok := tbl.SortedIndexOn(innerCol.Name); ok {
				if path.sorted == nil || path.sorted == ix {
					path.sorted = ix
					path.lo = boundRHS
					path.loIncl = op == value.GE
				}
			}
		case value.LE, value.LT:
			if ix, ok := tbl.SortedIndexOn(innerCol.Name); ok {
				if path.sorted == nil || path.sorted == ix {
					path.sorted = ix
					path.hi = boundRHS
					path.hiIncl = op == value.LE
				}
			}
		}
	}
	if path.hash == nil && path.sorted == nil {
		return nil
	}
	return &path
}

// candidates returns the inner row positions to visit for one outer
// row via the access path; hasPath is false when no access path exists
// and the caller must scan all inner rows. With a path, an empty (even
// nil) slice genuinely means "no candidates".
func (c *cpSub) candidates(outerRow relation.Tuple) (cand []int, hasPath bool, err error) {
	if c.path == nil {
		return nil, false, nil
	}
	if c.path.hash != nil {
		v, err := c.path.hashKey.Eval(outerRow)
		if err != nil {
			return nil, true, err
		}
		return c.path.hash.Lookup(v), true, nil
	}
	lo, hi := value.Null, value.Null
	loIncl, hiIncl := false, false
	if c.path.lo != nil {
		v, err := c.path.lo.Eval(outerRow)
		if err != nil {
			return nil, true, err
		}
		lo, loIncl = v, c.path.loIncl
		if v.IsNull() {
			return nil, true, nil // NULL bound matches nothing
		}
	}
	if c.path.hi != nil {
		v, err := c.path.hi.Eval(outerRow)
		if err != nil {
			return nil, true, err
		}
		hi, hiIncl = v, c.path.hiIncl
		if v.IsNull() {
			return nil, true, nil
		}
	}
	return c.path.sorted.Range(lo, loIncl, hi, hiIncl), true, nil
}

// A cpSub is a bound leaf of its predicate's expression: it evaluates
// to the subquery predicate's truth value, NULL for Unknown.
func (c *cpSub) Bind(*relation.Schema) (expr.Expr, error) { return c, nil }
func (c *cpSub) Children() []expr.Expr                    { return nil }
func (c *cpSub) String() string                           { return "subquery" }

func (c *cpSub) Eval(outerRow relation.Tuple) (value.Value, error) {
	switch tr, err := c.eval(outerRow); {
	case err != nil || tr == value.Unknown:
		return value.Null, err
	default:
		return value.Bool(tr == value.True), nil
	}
}

// eval implements the SQL semantics of each construct (the proof
// obligations of Theorem 3.1), with the native engine's early exits:
// EXISTS stops on first match, ALL stops on first counterexample (the
// "smart nested loop"), SOME stops on first witness.
func (c *cpSub) eval(outerRow relation.Tuple) (value.Tri, error) {
	if c.memo != nil {
		k := c.memo.key(outerRow)
		if tr, err, ok := c.memo.lookup(k); ok {
			return tr, err
		}
		tr, err := c.evalUncached(outerRow)
		c.memo.store(k, tr, err)
		return tr, err
	}
	return c.evalUncached(outerRow)
}

func (c *cpSub) evalUncached(outerRow relation.Tuple) (value.Tri, error) {
	full := make(relation.Tuple, c.outerW+c.innerW)
	copy(full, outerRow[:c.outerW])

	cand, hasPath, err := c.candidates(outerRow)
	if err != nil {
		return value.Unknown, err
	}
	// The per-outer-tuple inner scan is the native strategy's hot loop
	// (quadratic without an access path), so it carries the cooperative
	// cancellation tick.
	visit := func(fn func(innerRow relation.Tuple) (stop bool, err error)) error {
		if hasPath {
			for _, ri := range cand {
				if err := c.q.tick(); err != nil {
					return err
				}
				stop, err := fn(c.inner.Rows[ri])
				if err != nil || stop {
					return err
				}
			}
			return nil
		}
		for _, row := range c.inner.Rows {
			if err := c.q.tick(); err != nil {
				return err
			}
			stop, err := fn(row)
			if err != nil || stop {
				return err
			}
		}
		return nil
	}
	qualify := func(innerRow relation.Tuple) (value.Tri, error) {
		if c.innerPred == nil {
			return value.True, nil
		}
		copy(full[c.outerW:], innerRow)
		return c.innerPred.Tri(full)
	}

	switch c.kind {
	case algebra.Exists, algebra.NotExists:
		found := false
		err := visit(func(innerRow relation.Tuple) (bool, error) {
			tr, err := qualify(innerRow)
			if err != nil {
				return false, err
			}
			if tr == value.True {
				found = true
				return true, nil
			}
			return false, nil
		})
		if err != nil {
			return value.Unknown, err
		}
		if c.kind == algebra.Exists {
			return value.TriOf(found), nil
		}
		return value.TriOf(!found), nil

	case algebra.CmpSome:
		leftV, err := c.left.Eval(outerRow)
		if err != nil {
			return value.Unknown, err
		}
		result := value.False // empty S ⇒ false
		err = visit(func(innerRow relation.Tuple) (bool, error) {
			tr, err := qualify(innerRow)
			if err != nil {
				return false, err
			}
			if tr != value.True {
				return false, nil
			}
			cmp := c.op.Apply(leftV, innerRow[c.outPos])
			result = result.Or(cmp)
			return result == value.True, nil
		})
		if err != nil {
			return value.Unknown, err
		}
		return result, nil

	case algebra.CmpAll:
		leftV, err := c.left.Eval(outerRow)
		if err != nil {
			return value.Unknown, err
		}
		result := value.True // empty S ⇒ true
		err = visit(func(innerRow relation.Tuple) (bool, error) {
			tr, err := qualify(innerRow)
			if err != nil {
				return false, err
			}
			if tr != value.True {
				return false, nil
			}
			cmp := c.op.Apply(leftV, innerRow[c.outPos])
			result = result.And(cmp)
			return result == value.False, nil // smart nested loop
		})
		if err != nil {
			return value.Unknown, err
		}
		return result, nil

	case algebra.ScalarCmp:
		leftV, err := c.left.Eval(outerRow)
		if err != nil {
			return value.Unknown, err
		}
		if c.aggSpec != nil {
			fold := agg.New([]agg.Spec{*c.aggSpec}, 1)
			err := visit(func(innerRow relation.Tuple) (bool, error) {
				tr, err := qualify(innerRow)
				if err != nil {
					return false, err
				}
				if tr != value.True {
					return false, nil
				}
				copy(full[c.outerW:], innerRow)
				return false, fold.Add(0, 0, full)
			})
			if err != nil {
				return value.Unknown, err
			}
			return c.op.Apply(leftV, fold.Result(0, 0)), nil
		}
		var found bool
		var scalar value.Value
		err = visit(func(innerRow relation.Tuple) (bool, error) {
			tr, err := qualify(innerRow)
			if err != nil {
				return false, err
			}
			if tr != value.True {
				return false, nil
			}
			if found {
				return false, fmt.Errorf("exec: scalar subquery returned more than one row")
			}
			found = true
			scalar = innerRow[c.outPos]
			return false, nil
		})
		if err != nil {
			return value.Unknown, err
		}
		if !found {
			return value.Unknown, nil // empty scalar subquery is NULL
		}
		return c.op.Apply(leftV, scalar), nil

	default:
		return value.Unknown, fmt.Errorf("exec: unknown subquery kind %v", c.kind)
	}
}
