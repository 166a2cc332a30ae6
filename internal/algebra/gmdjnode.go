package algebra

import (
	"fmt"
	"strings"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// GMDJCond pairs one θᵢ condition with its aggregate list lᵢ
// (Definition 2.1 of the paper).
type GMDJCond struct {
	Theta expr.Expr
	Aggs  []agg.Spec
}

func (c GMDJCond) String() string {
	aggs := make([]string, len(c.Aggs))
	for i, a := range c.Aggs {
		aggs[i] = a.String()
	}
	return fmt.Sprintf("(%s | θ: %s)", strings.Join(aggs, ", "), c.Theta)
}

// GMDJ is the generalized multi-dimensional join
// MD(B, R, (l₁,…,lₘ), (θ₁,…,θₘ)): every base tuple b ∈ B yields one
// output tuple consisting of b extended with, for each condition i,
// the aggregates lᵢ folded over RNG(b, R, θᵢ) = {r ∈ R | θᵢ(b,r)}.
//
// Completion, when non-nil, encodes the tuple-completion optimization
// of §4.2 (Theorems 4.1/4.2); it is attached by the optimizer, never
// required for correctness.
type GMDJ struct {
	Base   Node
	Detail Node
	Conds  []GMDJCond

	Completion *CompletionInfo
}

// NewGMDJ builds a GMDJ node.
func NewGMDJ(base, detail Node, conds ...GMDJCond) *GMDJ {
	return &GMDJ{Base: base, Detail: detail, Conds: conds}
}

// Schema is GMDJSchema over the base's schema.
func (g *GMDJ) Schema(res SchemaResolver) (*relation.Schema, error) {
	base, err := g.Base.Schema(res)
	if err != nil {
		return nil, err
	}
	return GMDJSchema(base, g.Conds)
}

// GMDJSchema derives a GMDJ's output columns from its base schema: the
// base columns, then AggColumns. The evaluator applies it to the
// materialized base, so plan and result agree by construction. An
// aggregate column whose name another output column already has is an
// error.
func GMDJSchema(base *relation.Schema, conds []GMDJCond) (*relation.Schema, error) {
	cols := append([]relation.Column{}, base.Columns...)
	seen := map[string]bool{}
	for _, c := range base.Columns {
		seen[c.Name] = true
	}
	for _, col := range AggColumns(conds) {
		if seen[col.Name] {
			return nil, fmt.Errorf("algebra: duplicate GMDJ output column %q (rename the aggregate)", col.Name)
		}
		seen[col.Name] = true
		cols = append(cols, col)
	}
	return relation.NewSchema(cols...), nil
}

// AggColumns lists a GMDJ's aggregate output columns, one per spec in
// condition order, unqualified and named by each spec's As. An
// un-aliased spec is named after the paper's detail relation R
// (count_R, sum_R_F_NumBytes) whatever the detail plan is: the
// evaluator sees only the detail's rows, not its alias.
func AggColumns(conds []GMDJCond) []relation.Column {
	var cols []relation.Column
	for _, c := range conds {
		cols = append(cols, agg.OutputSchema(c.Aggs, "R")...)
	}
	return cols
}

// Children returns base and detail.
func (g *GMDJ) Children() []Node { return []Node{g.Base, g.Detail} }

func (g *GMDJ) String() string {
	conds := make([]string, len(g.Conds))
	for i, c := range g.Conds {
		conds[i] = c.String()
	}
	suffix := ""
	if g.Completion != nil {
		suffix = "+completion"
	}
	return fmt.Sprintf("MD%s(%s, %s, %s)", suffix, g.Base, g.Detail, strings.Join(conds, ", "))
}

// Side says which inputs of a GMDJ an expression over base ++ detail
// reads: SideBase | SideDetail for both, 0 for neither (a constant).
type Side uint8

const (
	SideBase Side = 1 << iota
	SideDetail
)

// ConjunctSide classifies one conjunct of a θ by the inputs its columns
// resolve in: a base-only conjunct is evaluated once per base tuple, a
// detail-only one once per detail tuple, and selection push-down moves
// exactly those below the operator. A column that resolves in both
// inputs, or in neither, is an error.
func ConjunctSide(e expr.Expr, base, detail *relation.Schema) (Side, error) {
	var side Side
	for _, c := range expr.Cols(e) {
		_, s, err := colSide(c, base, detail)
		if err != nil {
			return 0, err
		}
		side |= s
	}
	return side, nil
}

// colSide resolves c in base or detail: its position there and its side.
func colSide(c *expr.Col, base, detail *relation.Schema) (int, Side, error) {
	bi, errB := base.Find(c.Qualifier, c.Name)
	di, errD := detail.Find(c.Qualifier, c.Name)
	switch {
	case errB == nil && errD == nil:
		return 0, 0, fmt.Errorf("column %s is ambiguous between base and detail", c)
	case errB == nil:
		return bi, SideBase, nil
	case errD == nil:
		return di, SideDetail, nil
	}
	return 0, 0, fmt.Errorf("column %s resolves in neither base nor detail", c)
}

// ThetaSplit is a θ over left ++ right split for hash evaluation
// (DESIGN §5). LeftKey[k] and RightKey[k] are the k-th equi-key's
// positions in left and right, in conjunct order; Ranges are the
// cross-side bounds; Left, Right and Mixed are the other conjuncts by
// ConjunctSide, Mixed holding both-side and constant ones.
type ThetaSplit struct {
	LeftKey, RightKey  []int
	Ranges             []ThetaRange
	Left, Right, Mixed []expr.Expr
}

// ThetaRange is a conjunct left[L] Op right[R] with Op one of <, <=, >,
// >=, written left column first whichever side θ named first.
type ThetaRange struct {
	L, R int
	Op   value.CmpOp
}

// SplitTheta is the one split of θ's conjuncts, which the GMDJ, the
// hash join and selection push-down all read. A column = column across
// the sides is a key and nothing else; a range bound also stays among
// the mixed conjuncts, which a pair must still satisfy. A column that
// is ambiguous or unresolved is an error.
func SplitTheta(e expr.Expr, left, right *relation.Schema) (ThetaSplit, error) {
	var sp ThetaSplit
	for _, cj := range expr.Conjuncts(e) {
		if cmp, ok := cj.(*expr.Cmp); ok {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				li, ls, lerr := colSide(lc, left, right)
				ri, rs, rerr := colSide(rc, left, right)
				if op := cmp.Op; lerr == nil && rerr == nil && ls != rs {
					if ls == SideDetail {
						li, ri, op = ri, li, op.Flip()
					}
					if op == value.EQ {
						sp.LeftKey, sp.RightKey = append(sp.LeftKey, li), append(sp.RightKey, ri)
						continue
					}
					if op >= value.LT {
						sp.Ranges = append(sp.Ranges, ThetaRange{L: li, R: ri, Op: op})
					}
				}
			}
		}
		side, err := ConjunctSide(cj, left, right)
		if err != nil {
			return ThetaSplit{}, err
		}
		switch side {
		case SideBase:
			sp.Left = append(sp.Left, cj)
		case SideDetail:
			sp.Right = append(sp.Right, cj)
		default:
			sp.Mixed = append(sp.Mixed, cj)
		}
	}
	return sp, nil
}

// ---------------------------------------------------------------------------
// Tuple completion (§4.2)

// AtomKind classifies a count atom in the downstream selection.
type AtomKind uint8

const (
	// AtomZero is "cntᵢ = 0": decided False the moment θᵢ matches.
	AtomZero AtomKind = iota
	// AtomNonZero is "cntᵢ > 0" (also cntᵢ <> 0, cntᵢ >= 1): decided
	// True the moment θᵢ matches.
	AtomNonZero
)

// CompletionAtom ties a condition index to the decision its first
// match induces.
type CompletionAtom struct {
	Cond int // index into GMDJ.Conds; that condition must be a lone count(*)
	Kind AtomKind
}

// BoolTree is a tiny boolean formula over completion atoms, mirroring
// the downstream selection's structure so the evaluator can decide a
// base tuple the moment the formula's value is determined under Kleene
// evaluation (undecided atoms = Unknown).
type BoolTree struct {
	// Leaf >= 0 indexes Atoms; interior nodes have Leaf == -1.
	Leaf int
	Op   BoolOp
	Kids []*BoolTree
}

// BoolOp is the connective of an interior BoolTree node.
type BoolOp uint8

const (
	// BoolLeaf marks a leaf (Op unused).
	BoolLeaf BoolOp = iota
	// BoolAnd is conjunction.
	BoolAnd
	// BoolOr is disjunction.
	BoolOr
	// BoolNot is negation (one child).
	BoolNot
	// BoolOpaque marks a sub-formula the optimizer could not analyze;
	// it evaluates to Unknown forever, so the surrounding formula can
	// only decide early when the analyzable atoms force a value.
	BoolOpaque
)

// CompletionInfo is the optimizer's proof that a base tuple's fate
// under the downstream selection can be decided early. FreezeTrue
// reports whether tuples decided True may be emitted with frozen
// aggregates (Theorem 4.1 requires the projection above to discard all
// aggregate columns not fixed by the decision); tuples decided False
// are always safe to drop (Theorem 4.2).
type CompletionInfo struct {
	Atoms      []CompletionAtom
	Tree       *BoolTree
	FreezeTrue bool
}

// Leaf builds a leaf tree node.
func Leaf(atom int) *BoolTree { return &BoolTree{Leaf: atom, Op: BoolLeaf} }

// AndTree builds a conjunction.
func AndTree(kids ...*BoolTree) *BoolTree { return &BoolTree{Leaf: -1, Op: BoolAnd, Kids: kids} }

// OrTree builds a disjunction.
func OrTree(kids ...*BoolTree) *BoolTree { return &BoolTree{Leaf: -1, Op: BoolOr, Kids: kids} }

// NotTree builds a negation.
func NotTree(kid *BoolTree) *BoolTree {
	return &BoolTree{Leaf: -1, Op: BoolNot, Kids: []*BoolTree{kid}}
}

// OpaqueTree builds a permanently-Unknown leaf.
func OpaqueTree() *BoolTree { return &BoolTree{Leaf: -1, Op: BoolOpaque} }
