package expr

import (
	"cmp"
	"strings"
	"sync"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// Pred is a bound predicate lowered once to a list of conjunct leaves,
// the engine's one predicate evaluator: the GMDJ's detail pass, probe
// residual and fallback θ loop, σ and the join's ON all run it. A
// conjunct of the shape Col φ Lit, Lit φ Col, Col φ Col or
// Col IS [NOT] NULL becomes a kernel: no tree walk, no Value returned
// through an interface, the compare chosen by the kinds of the cells at
// hand (never the schema's word for them). Every other conjunct — OR,
// NOT, arithmetic, LIKE, a placeholder — stays a generic leaf that
// calls EvalTri, so Compile cannot fail and callers never ask which
// kind they hold. A Pred is immutable and safe for concurrent use.
//
// Tri answers exactly as EvalTri does. Filter and Pair truncate to True
// and stop at the first conjunct that is not, which permits one
// difference: a generic conjunct that would fail on a row is not
// evaluated once an earlier conjunct has answered Unknown there (the
// interpreter's AND stops only at False). A row the interpreter answers
// True is never lost, and a failure on a row still selected surfaces.
type Pred struct {
	leaves []leaf
}

type leafKind uint8

const (
	leafGeneric leafKind = iota // e, through EvalTri
	leafColLit                  // cell l φ lit
	leafColCol                  // cell l φ cell r
	leafIsNull                  // cell l IS [NOT] NULL
)

type leaf struct {
	kind leafKind
	e    Expr // the conjunct: all a generic leaf has, and how a kernel reports a column out of range
	l, r int
	lit  value.Value
	// litCol is lit as a column of one cell, for the typed loops (filter).
	litCol relation.ColVec
	// holds[c+1] is φ's answer when the left operand compares c to the right.
	holds   [3]bool
	negated bool
}

// Compile lowers a bound predicate. TRUE conjuncts, AND's identity, are
// dropped: the unconstrained θ compiles to no leaves at all.
func Compile(bound Expr) *Pred {
	p := &Pred{}
	for _, cj := range Conjuncts(bound) {
		if l, ok := cj.(*Lit); ok && l.V.Kind() == value.KindBool && l.V.AsBool() {
			continue
		}
		p.leaves = append(p.leaves, lower(cj))
	}
	return p
}

func lower(cj Expr) leaf {
	lf := leaf{e: cj}
	switch n := cj.(type) {
	case *IsNull:
		if c, ok := n.E.(*Col); ok && c.idx >= 0 {
			lf.kind, lf.l, lf.negated = leafIsNull, c.idx, n.Negated
		}
	case *Cmp:
		l, r, op := n.L, n.R, n.Op
		if _, ok := l.(*Lit); ok { // Lit φ Col is Col flip(φ) Lit
			l, r, op = r, l, op.Flip()
		}
		lc, ok := l.(*Col)
		if !ok || lc.idx < 0 || op > value.GE {
			break
		}
		switch r := r.(type) {
		case *Lit:
			lf.kind, lf.l, lf.lit = leafColLit, lc.idx, r.V
			lf.litCol.Append([]relation.Tuple{{r.V}}, 0)
		case *Col:
			if r.idx >= 0 {
				lf.kind, lf.l, lf.r = leafColCol, lc.idx, r.idx
			}
		}
		for c := range lf.holds {
			lf.holds[c] = op.Apply(value.Int(int64(c)), value.Int(1)) == value.True
		}
	}
	return lf
}

// kernel answers a kernel leaf over the row lo ++ hi. ok is false for a
// generic leaf and for a column beyond the row, which the interpreter
// reports: the caller hands both to EvalTri.
func (lf *leaf) kernel(lo, hi relation.Tuple) (tr value.Tri, ok bool) {
	if lf.kind == leafGeneric {
		return value.Unknown, false
	}
	a, b := cell(lo, hi, lf.l), &lf.lit
	if a == nil {
		return value.Unknown, false
	}
	switch lf.kind {
	case leafIsNull:
		return value.TriOf(a.IsNull() != lf.negated), true
	case leafColCol:
		if b = cell(lo, hi, lf.r); b == nil {
			return value.Unknown, false
		}
	}
	c, known := 0, true
	switch ak, bk := a.Kind(), b.Kind(); {
	case ak == value.KindInt && bk == value.KindInt:
		c = cmp.Compare(a.AsInt(), b.AsInt())
	case (ak == value.KindInt || ak == value.KindFloat) && (bk == value.KindInt || bk == value.KindFloat):
		c = value.CompareFloat(a.AsFloat(), b.AsFloat())
	case ak == value.KindString && bk == value.KindString:
		c = strings.Compare(a.AsString(), b.AsString())
	case ak == value.KindNull || bk == value.KindNull:
		known = false
	default: // BOOL, kinds that do not compare
		c, known = value.Compare(*a, *b)
	}
	if !known {
		return value.Unknown, true
	}
	return value.TriOf(lf.holds[c+1]), true
}

// tri answers the leaf over one row: the kernel, else the interpreter.
func (lf *leaf) tri(row relation.Tuple) (value.Tri, error) {
	if tr, ok := lf.kernel(nil, row); ok {
		return tr, nil
	}
	return EvalTri(lf.e, row)
}

// cell returns position i of lo ++ hi, nil beyond it.
func cell(lo, hi relation.Tuple, i int) *value.Value {
	if i < len(lo) {
		return &lo[i]
	}
	if i -= len(lo); i < len(hi) {
		return &hi[i]
	}
	return nil
}

// Tri evaluates the predicate over row under three-valued logic, as
// EvalTri does over the expression it was compiled from.
func (p *Pred) Tri(row relation.Tuple) (value.Tri, error) {
	acc := value.True
	for i := range p.leaves {
		tr, err := p.leaves[i].tri(row)
		if err != nil {
			return value.Unknown, err
		}
		if acc = acc.And(tr); acc == value.False {
			break
		}
	}
	return acc, nil
}

// Filter sets sel[i], for every row of the morsel, to whether the
// predicate is True on rows[i] (sel holds at least len(rows)): conjunct by
// conjunct over the morsel, each one run only on the rows still selected.
func (p *Pred) Filter(rows []relation.Tuple, sel []bool) error {
	return p.FilterColumns(nil, rows, 0, sel)
}

// gathered recycles the columns Filter gathers a morsel's cells into.
var gathered = sync.Pool{New: func() any { return new(relation.ColVec) }}

// FilterColumns is Filter over a morsel starting at row lo of cols, its
// relation's typed columns by position (nil: none). A kernel leaf is one
// typed loop (filter) over cols' vector, else over the morsel's cells
// gathered into one; a generic leaf, or a row too narrow, goes by row.
func (p *Pred) FilterColumns(cols []*relation.ColVec, rows []relation.Tuple, lo int, sel []bool) error {
	sel = sel[:len(rows)]
	for i := range sel {
		sel[i] = true
	}
	var scratch [2]*relation.ColVec
	defer func() {
		for _, c := range scratch {
			if c != nil {
				gathered.Put(c)
			}
		}
	}()
	for i := range p.leaves {
		lf := &p.leaves[i]
		if lf.kind != leafGeneric {
			a, ao := column(cols, lf.l, lo, rows, &scratch[0])
			b, bo, bs := &lf.litCol, 0, 0
			if lf.kind == leafColCol {
				b, bo = column(cols, lf.r, lo, rows, &scratch[1])
				bs = 1
			}
			if a != nil && b != nil {
				lf.filter(sel, a, ao, b, bo, bs)
				continue
			}
		}
		for ri, row := range rows {
			if !sel[ri] {
				continue
			}
			tr, err := lf.tri(row)
			if err != nil {
				return err
			}
			sel[ri] = tr == value.True
		}
	}
	return nil
}

// column returns column c of the morsel and the row it starts at: cols[c]
// at lo, else the cells gathered into *scratch at 0; nil for a short row.
func column(cols []*relation.ColVec, c, lo int, rows []relation.Tuple, scratch **relation.ColVec) (*relation.ColVec, int) {
	if c < len(cols) && cols[c] != nil {
		return cols[c], lo
	}
	if *scratch == nil {
		*scratch = gathered.Get().(*relation.ColVec)
	}
	v := *scratch
	v.Nulls, v.Ints, v.Floats, v.Strs, v.Boxed = v.Nulls[:0], v.Ints[:0], v.Floats[:0], v.Strs[:0], nil
	if !v.Append(rows, c) {
		return nil, 0
	}
	return v, 0
}

// filter sets sel[i], where set, to whether the leaf is True on cell ao+i
// of a and cell bo+i*bs of b (bs 0: the literal), as kernel answers. The
// loop is chosen once by the two kinds; a boxed column and BOOL take
// value.Compare per cell, kinds that never compare no loop.
func (lf *leaf) filter(sel []bool, a *relation.ColVec, ao int, b *relation.ColVec, bo, bs int) {
	n, h := len(sel), lf.holds // a copy: sel's stores cannot change it
	an, bn := a.Nulls[ao:ao+n], b.Nulls[bo:]
	switch ak, bk := a.Kind, b.Kind; {
	case lf.kind == leafIsNull:
		for i := range sel {
			sel[i] = sel[i] && an[i] != lf.negated
		}
	case ak == value.KindInt && bk == value.KindInt:
		ints(sel, &h, an, a.Ints[ao:ao+n], bn, b.Ints[bo:], bs)
	case ak == value.KindString && bk == value.KindString:
		strs(sel, &h, an, a.Strs[ao:ao+n], bn, b.Strs[bo:], bs)
	case ak == value.KindInt && bk == value.KindFloat:
		widened(sel, &h, an, a.Ints[ao:ao+n], bn, b.Floats[bo:], bs)
	case ak == value.KindFloat && bk == value.KindInt:
		widened(sel, &h, an, a.Floats[ao:ao+n], bn, b.Ints[bo:], bs)
	case ak == value.KindFloat && bk == value.KindFloat:
		widened(sel, &h, an, a.Floats[ao:ao+n], bn, b.Floats[bo:], bs)
	case a.Boxed == nil && b.Boxed == nil && (ak != bk || ak == value.KindNull): // never compare
		clear(sel)
	default:
		for i := range sel {
			if sel[i] {
				c, ok := value.Compare(a.Value(ao+i), b.Value(bo+i*bs))
				sel[i] = ok && h[c+1]
			}
		}
	}
}

// ints, strs and widened are filter's loops over INT, STRING and numeric
// cells (INT beside FLOAT widens).
func ints(sel []bool, h *[3]bool, an []bool, av []int64, bn []bool, bv []int64, bs int) {
	for i, ok := range sel {
		if j := i * bs; ok {
			sel[i] = !an[i] && !bn[j] && h[cmp.Compare(av[i], bv[j])+1]
		}
	}
}

func strs(sel []bool, h *[3]bool, an []bool, av []string, bn []bool, bv []string, bs int) {
	for i, ok := range sel {
		if j := i * bs; ok {
			sel[i] = !an[i] && !bn[j] && h[strings.Compare(av[i], bv[j])+1]
		}
	}
}

func widened[A, B int64 | float64](sel []bool, h *[3]bool, an []bool, av []A, bn []bool, bv []B, bs int) {
	for i, ok := range sel {
		if j := i * bs; ok {
			sel[i] = !an[i] && !bn[j] && h[value.CompareFloat(float64(av[i]), float64(bv[j]))+1]
		}
	}
}

// Columns lists the positions the kernel leaves read: what FilterColumns
// takes from typed vectors when it is handed them.
func (p *Pred) Columns() (cols []int) {
	for _, lf := range p.leaves {
		if lf.kind == leafColCol {
			cols = append(cols, lf.r)
		}
		if lf.kind != leafGeneric {
			cols = append(cols, lf.l)
		}
	}
	return cols
}

// Empty reports whether the predicate has no conjunct: it holds on every
// row.
func (p *Pred) Empty() bool { return len(p.leaves) == 0 }

// Pair reports whether the predicate, bound to base ++ detail, is True
// on the pair. Kernels read each column from the tuple that holds it;
// only a generic leaf needs the concatenation, built in buf (capacity
// len(base)+len(detail) keeps Pair allocation-free).
func (p *Pred) Pair(base, detail, buf relation.Tuple) (bool, error) {
	var full relation.Tuple
	for i := range p.leaves {
		lf := &p.leaves[i]
		tr, ok := lf.kernel(base, detail)
		if !ok {
			if full == nil {
				full = append(append(buf[:0], base...), detail...)
			}
			var err error
			if tr, err = EvalTri(lf.e, full); err != nil {
				return false, err
			}
		}
		if tr != value.True {
			return false, nil
		}
	}
	return true, nil
}
