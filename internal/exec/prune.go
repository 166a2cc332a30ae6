// Zone-map scan pruning: a selection directly over a base-table Scan —
// a Restrict, or the one a GMDJ evaluation fuses with its detail scan —
// consults the table's per-column zone maps (storage.Table.Zones) and
// skips whole ZoneBlockRows blocks whose min/max statistics prove no
// row can satisfy the predicate. Only top-level AND conjuncts
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
// scan's schema.
func pruneConjuncts(where algebra.Pred, scan *relation.Schema) []pruneConjunct {
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

// pruneScanInput evaluates Scan s as the input of a selection on where —
// a chain's bottom σ (evalChain), or the one a GMDJ evaluation fuses
// with its detail — handing on only the rows of the blocks whose zone
// maps cannot rule where out, and records segments_pruned /
// segments_total on the selection's stats node. The scan keeps its own
// stats node and charges the rows it hands on. whole is the table when no
// block was skipped — the relation is then the table's, row for row —
// and nil otherwise.
func (e *Executor) pruneScanInput(s *algebra.Scan, where algebra.Pred, ev *env) (in *relation.Relation, whole *storage.Table, err error) {
	pruned, total := 0, 0
	in, err = e.observe(s, ev, func() (*relation.Relation, error) {
		t, rel, err := e.scanTable(s, ev)
		if err != nil {
			return nil, err
		}
		rel, pruned, total = pruneBlocks(t, rel, pruneConjuncts(where, rel.Schema))
		if pruned == 0 {
			whole = t
		}
		e.chargeScan(rel.Len(), ev)
		return rel, nil
	})
	if op := ev.q.col.Current(); op != nil && total > 0 {
		op.Add("segments_pruned", int64(pruned))
		op.Add("segments_total", int64(total))
	}
	e.segmentsPruned.Add(int64(pruned))
	return in, whole, err
}

// pruneBlocks drops from in — t's rows — the blocks one of conjs rules
// out, reading the table's per-column zone maps (which describe exactly
// those rows: both are the table at its current version). Survivors
// that form one run, as the newest keys of an append-ordered table do,
// are returned as a sub-slice of in's rows; scattered ones have their
// row headers copied, when that is less than what was skipped.
func pruneBlocks(t *storage.Table, in *relation.Relation, conjs []pruneConjunct) (out *relation.Relation, pruned, total int) {
	if len(conjs) == 0 || in.Len() == 0 {
		return in, 0, 0
	}
	zones := make([][]storage.ZoneMap, len(conjs))
	for i, c := range conjs {
		zones[i] = t.Zones(c.col)
	}
	total = len(zones[0])
	// runs holds the surviving row ranges, adjacent blocks joined; kept
	// is their rows.
	var runs [][2]int
	kept := 0
	for b := 0; b < total; b++ {
		skip := false
		for i, c := range conjs {
			if zones[i][b].CanPrune(c.op, c.lit) {
				skip = true
				break
			}
		}
		if skip {
			pruned++
			continue
		}
		lo, hi := b*storage.ZoneBlockRows, min((b+1)*storage.ZoneBlockRows, in.Len())
		kept += hi - lo
		if n := len(runs); n > 0 && runs[n-1][1] == lo {
			runs[n-1][1] = hi
		} else {
			runs = append(runs, [2]int{lo, hi})
		}
	}
	switch {
	case pruned == 0:
		return in, 0, total
	case len(runs) == 1:
		return &relation.Relation{Schema: in.Schema, Rows: in.Rows[runs[0][0]:runs[0][1]]}, pruned, total
	case kept > in.Len()-kept:
		// Scattered survivors have to be copied, and the copy would be
		// larger than what it lets the reader skip: a few skipped blocks
		// are not worth a second set of row headers for the whole table.
		return in, 0, total
	}
	out = &relation.Relation{Schema: in.Schema, Rows: make([]relation.Tuple, 0, kept)}
	for _, r := range runs {
		out.Rows = append(out.Rows, in.Rows[r[0]:r[1]]...)
	}
	return out, pruned, total
}
