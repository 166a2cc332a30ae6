package expr

import (
	"cmp"
	"slices"
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
	// litCol is lit as a column of one cell, for the typed loops (filter);
	// litF a numeric lit widened once, as value.Compare widens it.
	litCol relation.ColVec
	litF   float64
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
			if k := r.V.Kind(); k == value.KindInt || k == value.KindFloat {
				lf.litF = r.V.AsFloat()
			}
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

// kernel answers a kernel leaf over its operands' cells, a and b (IS
// NULL reads a alone). ok is false for a generic leaf and an operand
// beyond the row (nil), which the caller hands to EvalTri.
func (lf *leaf) kernel(a, b *value.Value) (tr value.Tri, ok bool) {
	switch {
	case lf.kind == leafGeneric || a == nil || b == nil:
		return value.Unknown, false
	case lf.kind == leafIsNull:
		return value.TriOf(a.IsNull() != lf.negated), true
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
	b := &lf.lit
	if lf.kind == leafColCol {
		b = cell(row, lf.r)
	}
	if tr, ok := lf.kernel(cell(row, lf.l), b); ok {
		return tr, nil
	}
	return EvalTri(lf.e, row)
}

// cell returns row's column i, nil beyond it.
func cell(row relation.Tuple, i int) *value.Value {
	if i < len(row) {
		return &row[i]
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
// predicate is True on rows[i] (sel holds at least len(rows)): a Scan of
// the rows' cells, 1 024 rows at a time.
func (p *Pred) Filter(rows []relation.Tuple, sel []bool) error {
	var pos [1024]int32
	s := Scan{p: p}
	for lo := 0; lo < len(rows); lo += len(pos) {
		n := min(len(pos), len(rows)-lo)
		for i := range n {
			pos[i] = int32(i)
		}
		kept, err := s.Select(rows[lo:lo+n], 0, pos[:n])
		if err != nil {
			return err
		}
		clear(sel[lo : lo+n])
		for _, i := range kept {
			sel[lo+int(i)] = true
		}
	}
	return nil
}

// gathered recycles the columns a morsel's cells are gathered into.
var gathered = sync.Pool{New: func() any { return new(relation.ColVec) }}

// Scan is a Pred over one relation's typed columns for one pass: Bind
// evaluates each Col φ 'lit' leaf over a dictionary-coded vector once per
// entry (strings.Compare order) into a truth table, Select runs the
// leaves over a morsel, each over the positions the last kept. A bound
// Scan is only read, so workers share it; the Pred stays immutable.
type Scan struct {
	p     *Pred
	cols  []*relation.ColVec
	truth [][]bool // by leaf: the answer per code of a coded column, else nil
	slab  []bool
}

// Bind readies s to run p over cols, the typed columns by position.
func (s *Scan) Bind(p *Pred, cols []*relation.ColVec) {
	s.p, s.cols, s.slab = p, cols, s.slab[:0]
	s.truth = slices.Grow(s.truth[:0], len(p.leaves))[:len(p.leaves)]
	for i := range p.leaves {
		lf, at := &p.leaves[i], len(s.slab)
		if s.truth[i] = nil; lf.kind == leafColLit && lf.l < len(cols) && cols[lf.l] != nil && cols[lf.l].Dict != nil && lf.lit.Kind() == value.KindString {
			for _, d := range cols[lf.l].Dict {
				s.slab = append(s.slab, lf.holds[strings.Compare(d, lf.lit.AsString())+1])
			}
			s.truth[i] = s.slab[at:len(s.slab):len(s.slab)]
		}
	}
}

// Select keeps, in place, the ascending positions sel of the morsel at
// row lo of the bound columns (rows its cells) whose row the predicate is
// True on. A kernel leaf is one typed loop (filter) over the column's
// vector or the cells gathered; a generic leaf or a short row goes by row.
func (s *Scan) Select(rows []relation.Tuple, lo int, sel []int32) ([]int32, error) {
	var scratch [2]*relation.ColVec
	defer func() {
		for _, c := range scratch {
			if c != nil {
				gathered.Put(c)
			}
		}
	}()
	for li := 0; li < len(s.p.leaves) && len(sel) > 0; li++ {
		lf := &s.p.leaves[li]
		if lf.kind != leafGeneric {
			a, ao := column(s.cols, lf.l, lo, rows, &scratch[0])
			b, bo, bs := &lf.litCol, 0, 0
			if lf.kind == leafColCol {
				b, bo = column(s.cols, lf.r, lo, rows, &scratch[1])
				bs = 1
			}
			if a != nil && b != nil {
				sel = s.filter(li, sel, a, ao, b, bo, bs)
				continue
			}
		}
		k := 0
		for _, i := range sel {
			tr, err := lf.tri(rows[i])
			if err != nil {
				return nil, err
			}
			sel[k] = i
			k += b2i(tr == value.True)
		}
		sel = sel[:k]
	}
	return sel, nil
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

// filter keeps the positions i of sel where leaf li is True on cell ao+i
// of a and cell bo+i*bs of b (bs 0: the literal), as kernel answers, in
// a loop chosen once by the kinds: a coded column reads the truth table;
// boxed and BOOL cells take value.Compare, kinds that never compare none.
func (s *Scan) filter(li int, sel []int32, a *relation.ColVec, ao int, b *relation.ColVec, bo, bs int) []int32 {
	lf := &s.p.leaves[li]
	h, k := lf.holds, 0 // a copy: sel's stores cannot change it
	an, bn := a.Nulls[ao:], b.Nulls[bo:]
	switch ak, bk := a.Kind, b.Kind; {
	case lf.kind == leafIsNull:
		for _, i := range sel {
			sel[k] = i
			k += b2i(an[i] != lf.negated)
		}
	case ak == value.KindString && bk == value.KindString && a.Dict != nil && bs == 0 && len(s.truth[li]) > 0: // none: all NULL
		codes, truth := a.Codes[ao:], s.truth[li]
		for _, i := range sel {
			sel[k] = i
			k += b2i(truth[codes[i]]) &^ b2i(an[i])
		}
	case bs == 0 && ak == value.KindInt && bk == value.KindInt:
		k = lits(sel, &h, an, a.Ints[ao:], lf.lit.AsInt())
	case bs == 0 && ak == value.KindFloat && (bk == value.KindInt || bk == value.KindFloat) && lf.litF == lf.litF:
		k = lits(sel, &h, an, a.Floats[ao:], lf.litF)
	case bs == 0 && ak == value.KindInt && bk == value.KindFloat && lf.litF == lf.litF:
		k = lits(sel, &h, an, a.Ints[ao:], lf.litF)
	case ak == value.KindString && bk == value.KindString && a.Dict == nil && b.Dict == nil:
		k = strs(sel, &h, an, a.Strs[ao:], bn, b.Strs[bo:], bs)
	case ak == value.KindInt && bk == value.KindFloat:
		k = widened(sel, &h, an, a.Ints[ao:], bn, b.Floats[bo:], bs)
	case ak == value.KindFloat && bk == value.KindInt:
		k = widened(sel, &h, an, a.Floats[ao:], bn, b.Ints[bo:], bs)
	case ak == value.KindFloat && bk == value.KindFloat:
		k = widened(sel, &h, an, a.Floats[ao:], bn, b.Floats[bo:], bs)
	case a.Boxed == nil && b.Boxed == nil && (ak != bk || ak == value.KindNull): // never compare
	default:
		for _, i := range sel {
			c, ok := value.Compare(a.Value(ao+int(i)), b.Value(bo+int(i)*bs))
			sel[k] = i
			k += b2i(ok && h[c+1])
		}
	}
	return sel[:k]
}

// lits is filter's loop beside a numeric literal not NaN, cells widened as
// it is: φ is <, <= or =, or one negated, true of NaN (value.CompareFloat).
// strs and widened are its loops over plain STRING and numeric cells.
func lits[A, L int64 | float64](sel []int32, h *[3]bool, an []bool, av []A, l L) (k int) {
	neg := h[2] // φ is >=, > or <>: not <, <= or =
	switch {
	case h[0] != neg && h[1] == neg:
		for _, i := range sel {
			sel[k] = i
			k += b2i((L(av[i]) < l) != neg) &^ b2i(an[i])
		}
	case h[0] != neg:
		for _, i := range sel {
			sel[k] = i
			k += b2i((L(av[i]) <= l) != neg) &^ b2i(an[i])
		}
	default:
		for _, i := range sel {
			sel[k] = i
			k += b2i((L(av[i]) == l) != neg) &^ b2i(an[i])
		}
	}
	return k
}

func strs(sel []int32, h *[3]bool, an []bool, av []string, bn []bool, bv []string, bs int) (k int) {
	for _, i := range sel {
		j := int(i) * bs
		sel[k] = i
		k += b2i(h[strings.Compare(av[i], bv[j])+1]) &^ b2i(an[i] || bn[j])
	}
	return k
}

func widened[A, B int64 | float64](sel []int32, h *[3]bool, an []bool, av []A, bn []bool, bv []B, bs int) (k int) {
	for _, i := range sel {
		j := int(i) * bs
		sel[k] = i
		k += b2i(h[value.CompareFloat(float64(av[i]), float64(bv[j]))+1]) &^ b2i(an[i] || bn[j])
	}
	return k
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Columns lists the positions the kernel leaves read: what a Scan takes
// from typed vectors when it is handed them.
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

// Side is one side of a Pair: row At of Rows, whose column c is read
// from Cols[c] at At where that is a vector, leaving the row unread.
// Cols has an entry per column of the side.
type Side struct {
	Rows []relation.Tuple
	Cols []*relation.ColVec
	At   int
}

// operand returns position i of base ++ detail, base w columns wide:
// the cell in its side's vector, copied to dst, else in its row; nil
// beyond the row.
func operand(dst *value.Value, base, detail *Side, w, i int) *value.Value {
	s := base
	if i >= w {
		s, i = detail, i-w
	}
	if i < len(s.Cols) && s.Cols[i] != nil {
		*dst = s.Cols[i].Value(s.At)
		return dst
	}
	if row := s.Rows[s.At]; i < len(row) {
		return &row[i]
	}
	return nil
}

// pairInt returns position i of base ++ detail from an INT vector, ok
// false where it has none or the cell is NULL.
func pairInt(base, detail *Side, w, i int) (int64, bool) {
	s := base
	if i >= w {
		s, i = detail, i-w
	}
	if i >= len(s.Cols) || s.Cols[i] == nil || s.Cols[i].Kind != value.KindInt || s.Cols[i].Boxed != nil || s.Cols[i].Nulls[s.At] {
		return 0, false
	}
	return s.Cols[i].Ints[s.At], true
}

// Pair reports whether the predicate, bound to base ++ detail, is True
// on the pair. Kernels read each cell from its side (operand); only a
// generic leaf needs the concatenation, built in buf (capacity
// len(base)+len(detail) keeps Pair allocation-free).
func (p *Pred) Pair(base, detail *Side, buf relation.Tuple) (bool, error) {
	w, full := len(base.Cols), relation.Tuple(nil)
	for i := range p.leaves {
		lf := &p.leaves[i]
		if lf.kind == leafColCol { // two INT vectors: no Value built
			a, aok := pairInt(base, detail, w, lf.l)
			if b, bok := pairInt(base, detail, w, lf.r); aok && bok {
				if !lf.holds[cmp.Compare(a, b)+1] {
					return false, nil
				}
				continue
			}
		}
		var av, bv value.Value
		a, b := operand(&av, base, detail, w, lf.l), &lf.lit
		if lf.kind == leafColCol {
			b = operand(&bv, base, detail, w, lf.r)
		}
		tr, ok := lf.kernel(a, b)
		if !ok {
			if full == nil {
				full = append(append(buf[:0], base.Rows[base.At]...), detail.Rows[detail.At]...)
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
