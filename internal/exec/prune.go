// Zone-map scan pruning: a Restrict directly over a base-table Scan
// consults the table's packed columnar segment (storage.Segment) and
// skips whole ZoneBlockRows blocks whose per-column min/max statistics
// prove no row can satisfy the predicate. Only top-level AND conjuncts
// of the shape column ⟨cmp⟩ literal prune — they must hold for every
// emitted row, so a block where one of them is unsatisfiable
// contributes nothing. Pruning is a strict subset operation on the
// scan's row ranges; the surviving rows flow through the ordinary
// filter pipeline, so results are byte-identical with pruning on or
// off.

package exec

import (
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// pruneConjunct is one zone-prunable predicate conjunct: table-relative
// column position, comparison operator, literal.
type pruneConjunct struct {
	col int
	op  value.CmpOp
	lit value.Value
}

// pruneConjuncts extracts the zone-prunable conjuncts of where: the
// top-level AND terms (both predicate-level PredAnd and
// expression-level expr.And inside an Atom) of the shape
// col ⟨cmp⟩ lit (either orientation) whose column resolves in the
// scan's schema and nowhere in the outer environment (a name that
// could bind to an enclosing block must not prune — the real binding
// would resolve there first).
func pruneConjuncts(where algebra.Pred, scan, outer *relation.Schema) []pruneConjunct {
	preds := []algebra.Pred{where}
	if and, ok := where.(*algebra.PredAnd); ok {
		preds = and.Terms
	}
	var terms []expr.Expr
	for _, p := range preds {
		atom, ok := p.(*algebra.Atom)
		if !ok {
			continue
		}
		if and, ok := atom.E.(*expr.And); ok {
			terms = append(terms, and.Terms...)
			continue
		}
		terms = append(terms, atom.E)
	}
	var out []pruneConjunct
	for _, term := range terms {
		cmp, ok := term.(*expr.Cmp)
		if !ok {
			continue
		}
		col, lit, op, ok := splitCmp(cmp)
		if !ok {
			continue
		}
		if _, err := outer.Find(col.Qualifier, col.Name); err == nil {
			continue
		}
		pos, err := scan.Find(col.Qualifier, col.Name)
		if err != nil {
			continue
		}
		out = append(out, pruneConjunct{col: pos, op: op, lit: lit.V})
	}
	return out
}

// splitCmp matches col ⟨cmp⟩ lit in either orientation, flipping the
// operator when the literal is on the left (5 < x ⇔ x > 5).
func splitCmp(c *expr.Cmp) (*expr.Col, *expr.Lit, value.CmpOp, bool) {
	if col, ok := c.L.(*expr.Col); ok {
		if lit, ok := c.R.(*expr.Lit); ok {
			return col, lit, c.Op, true
		}
	}
	if lit, ok := c.L.(*expr.Lit); ok {
		if col, ok := c.R.(*expr.Col); ok {
			return col, lit, c.Op.Flip(), true
		}
	}
	return nil, nil, 0, false
}

// pruneScanInput applies zone-map pruning to a Restrict whose input is
// a bare table scan, returning the (possibly) reduced input relation
// and recording segments_pruned / segments_total on the current stats
// node. Any mismatch — derived input, unresolvable table, segment row
// count out of sync with the materialized relation — returns the input
// untouched.
func (e *Executor) pruneScanInput(r *algebra.Restrict, in *relation.Relation, ev *env) *relation.Relation {
	s, ok := r.Input.(*algebra.Scan)
	if !ok || in.Len() == 0 {
		return in
	}
	conjs := pruneConjuncts(r.Where, in.Schema, ev.schema)
	if len(conjs) == 0 {
		return in
	}
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return in
	}
	seg := t.Segment()
	if seg.Rows != in.Len() {
		return in
	}
	nblocks := seg.NumBlocks()
	out := &relation.Relation{Schema: in.Schema}
	pruned := 0
	for b := 0; b < nblocks; b++ {
		skip := false
		for _, c := range conjs {
			if seg.Zones[c.col][b].CanPrune(c.op, c.lit) {
				skip = true
				break
			}
		}
		if skip {
			pruned++
			continue
		}
		lo := b * storage.ZoneBlockRows
		hi := lo + storage.ZoneBlockRows
		if hi > in.Len() {
			hi = in.Len()
		}
		out.Rows = append(out.Rows, in.Rows[lo:hi]...)
	}
	if op := ev.q.col.Current(); op != nil {
		op.Add("segments_pruned", int64(pruned))
		op.Add("segments_total", int64(nblocks))
	}
	if pruned == 0 {
		return in
	}
	e.segmentsPruned.Add(int64(pruned))
	return out
}
