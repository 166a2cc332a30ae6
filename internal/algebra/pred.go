package algebra

import (
	"fmt"
	"strings"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/value"
)

// Pred is the predicate language W of Theorem 3.5:
//
//	W := ¬(W) | W ∧ W | W ∨ W | P
//
// where P is either an ordinary comparison predicate (Atom) or a
// subquery expression (SubPred).
type Pred interface {
	fmt.Stringer
	isPred()
}

// Atom wraps an ordinary (subquery-free) boolean expression.
type Atom struct {
	E expr.Expr
}

func (*Atom) isPred()          {}
func (a *Atom) String() string { return a.E.String() }

// PredAnd is conjunction of predicate terms.
type PredAnd struct {
	Terms []Pred
}

func (*PredAnd) isPred() {}
func (p *PredAnd) String() string {
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " ∧ ") + ")"
}

// PredOr is disjunction of predicate terms.
type PredOr struct {
	Terms []Pred
}

func (*PredOr) isPred() {}
func (p *PredOr) String() string {
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// PredNot is negation.
type PredNot struct {
	P Pred
}

func (*PredNot) isPred()          {}
func (p *PredNot) String() string { return "¬(" + p.P.String() + ")" }

// And/Or/Not build predicate trees, flattening single terms.
func And(terms ...Pred) Pred {
	if len(terms) == 1 {
		return terms[0]
	}
	return &PredAnd{Terms: terms}
}

// Or builds a disjunction, flattening single terms.
func Or(terms ...Pred) Pred {
	if len(terms) == 1 {
		return terms[0]
	}
	return &PredOr{Terms: terms}
}

// Not builds a negation.
func Not(p Pred) Pred { return &PredNot{P: p} }

// SubKind classifies the subquery predicate constructs of §2.1.
type SubKind uint8

const (
	// Exists is σ[∃ S]B.
	Exists SubKind = iota
	// NotExists is σ[∄ S]B.
	NotExists
	// ScalarCmp is σ[x φ S]B with S single-tuple single-attribute
	// (either a plain projection expected to yield ≤1 row, or an
	// aggregate subquery, which always yields exactly one row).
	ScalarCmp
	// CmpSome is σ[x φ_some S]B (ANY is a synonym; IN is =_some).
	CmpSome
	// CmpAll is σ[x φ_all S]B (NOT IN is ≠_all).
	CmpAll
)

// String names the construct.
func (k SubKind) String() string {
	switch k {
	case Exists:
		return "EXISTS"
	case NotExists:
		return "NOT EXISTS"
	case ScalarCmp:
		return "CMP"
	case CmpSome:
		return "SOME"
	case CmpAll:
		return "ALL"
	default:
		return "?"
	}
}

// Subquery is the inner block S: a source plan, a correlation
// condition θ (which may reference outer qualifiers — free references),
// and an output: either a projected column or an aggregate over one.
// EXISTS subqueries have no output. The Where predicate may itself
// contain SubPreds (linear nesting, §3.2).
type Subquery struct {
	Source Node
	Where  Pred // nil means TRUE

	// OutCol is R.y for π[R.y]σ[θ](R)-style subqueries; nil otherwise.
	OutCol *expr.Col
	// Agg is f(R.y) for aggregate subqueries; nil otherwise.
	Agg *agg.Spec
}

func (s *Subquery) String() string {
	out := ""
	switch {
	case s.Agg != nil:
		out = "π[" + s.Agg.String() + "]"
	case s.OutCol != nil:
		out = "π[" + s.OutCol.String() + "]"
	}
	w := "true"
	if s.Where != nil {
		w = s.Where.String()
	}
	return fmt.Sprintf("%sσ[%s](%s)", out, w, s.Source)
}

// SubPred is a subquery predicate P: Left φ-quantified against the
// subquery (Left is nil for EXISTS / NOT EXISTS).
type SubPred struct {
	Kind SubKind
	Op   value.CmpOp // meaningful for ScalarCmp, CmpSome, CmpAll
	Left expr.Expr   // the outer operand B.x; nil for EXISTS kinds
	Sub  *Subquery
}

func (*SubPred) isPred() {}

func (p *SubPred) String() string {
	switch p.Kind {
	case Exists:
		return fmt.Sprintf("∃(%s)", p.Sub)
	case NotExists:
		return fmt.Sprintf("∄(%s)", p.Sub)
	case ScalarCmp:
		return fmt.Sprintf("%s %s (%s)", p.Left, p.Op, p.Sub)
	case CmpSome:
		return fmt.Sprintf("%s %s SOME (%s)", p.Left, p.Op, p.Sub)
	case CmpAll:
		return fmt.Sprintf("%s %s ALL (%s)", p.Left, p.Op, p.Sub)
	default:
		return "?"
	}
}

// In builds x IN (π[y] S), which by definition (§2.1) is x =_some S.
func In(left expr.Expr, sub *Subquery) *SubPred {
	return &SubPred{Kind: CmpSome, Op: value.EQ, Left: left, Sub: sub}
}

// NotIn builds x NOT IN (π[y] S) = x ≠_all S (§2.1).
func NotIn(left expr.Expr, sub *Subquery) *SubPred {
	return &SubPred{Kind: CmpAll, Op: value.NE, Left: left, Sub: sub}
}

// ExistsPred builds ∃ S.
func ExistsPred(sub *Subquery) *SubPred { return &SubPred{Kind: Exists, Sub: sub} }

// NotExistsPred builds ∄ S.
func NotExistsPred(sub *Subquery) *SubPred { return &SubPred{Kind: NotExists, Sub: sub} }

// WalkPred visits p and all descendant predicates in pre-order,
// stopping a branch when fn returns false. It does not descend into
// subquery Where clauses — callers needing that recurse explicitly.
func WalkPred(p Pred, fn func(Pred) bool) {
	if p == nil || !fn(p) {
		return
	}
	switch n := p.(type) {
	case *PredAnd:
		for _, t := range n.Terms {
			WalkPred(t, fn)
		}
	case *PredOr:
		for _, t := range n.Terms {
			WalkPred(t, fn)
		}
	case *PredNot:
		WalkPred(n.P, fn)
	}
}

// MapPred rebuilds p's connectives over fn of each leaf, an Atom or a
// SubPred. Like WalkPred it does not descend into subquery Where
// clauses.
func MapPred(p Pred, fn func(Pred) Pred) Pred {
	terms := func(ts []Pred) []Pred {
		out := make([]Pred, len(ts))
		for i, t := range ts {
			out[i] = MapPred(t, fn)
		}
		return out
	}
	switch t := p.(type) {
	case nil:
		return nil
	case *PredAnd:
		return &PredAnd{Terms: terms(t.Terms)}
	case *PredOr:
		return &PredOr{Terms: terms(t.Terms)}
	case *PredNot:
		return &PredNot{P: MapPred(t.P, fn)}
	default:
		return fn(p)
	}
}

// HasSubquery reports whether p contains any subquery predicate.
func HasSubquery(p Pred) bool {
	found := false
	WalkPred(p, func(q Pred) bool {
		if _, ok := q.(*SubPred); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// PredExpr flattens a subquery-free predicate tree to the expression
// it denotes; a subquery predicate is an error.
func PredExpr(p Pred) (expr.Expr, error) {
	terms := func(ps []Pred) ([]expr.Expr, error) {
		out := make([]expr.Expr, len(ps))
		for i, t := range ps {
			e, err := PredExpr(t)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	switch n := p.(type) {
	case *Atom:
		return n.E, nil
	case *PredAnd:
		ts, err := terms(n.Terms)
		if err != nil {
			return nil, err
		}
		return expr.NewAnd(ts...), nil
	case *PredOr:
		ts, err := terms(n.Terms)
		if err != nil {
			return nil, err
		}
		return expr.NewOr(ts...), nil
	case *PredNot:
		e, err := PredExpr(n.P)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(e), nil
	default:
		return nil, fmt.Errorf("algebra: predicate %s is not a plain expression", p)
	}
}

// PushDownNegations rewrites p so that no PredNot remains above a
// subquery predicate or conjunction/disjunction: De Morgan's laws push
// ¬ to the atoms, and negations directly on subquery predicates are
// eliminated with the rules of Theorem 3.5:
//
//	¬(t φ S)       ⇒ t φ̄ S
//	¬(t φ_some S)  ⇒ t φ̄_all S
//	¬(t φ_all S)   ⇒ t φ̄_some S
//	¬(∃S)          ⇒ ∄S        and vice versa
//
// Negations over plain atoms become expr.Not (3VL-safe).
func PushDownNegations(p Pred) Pred {
	return pushNeg(p, false)
}

func pushNeg(p Pred, neg bool) Pred {
	switch n := p.(type) {
	case *PredNot:
		return pushNeg(n.P, !neg)
	case *PredAnd:
		terms := make([]Pred, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = pushNeg(t, neg)
		}
		if neg {
			return &PredOr{Terms: terms}
		}
		return &PredAnd{Terms: terms}
	case *PredOr:
		terms := make([]Pred, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = pushNeg(t, neg)
		}
		if neg {
			return &PredAnd{Terms: terms}
		}
		return &PredOr{Terms: terms}
	case *Atom:
		if neg {
			return &Atom{E: expr.NewNot(n.E)}
		}
		return n
	case *SubPred:
		sub := &Subquery{Source: n.Sub.Source, Where: normalizeSubWhere(n.Sub.Where), OutCol: n.Sub.OutCol, Agg: n.Sub.Agg}
		if !neg {
			return &SubPred{Kind: n.Kind, Op: n.Op, Left: n.Left, Sub: sub}
		}
		switch n.Kind {
		case Exists:
			return &SubPred{Kind: NotExists, Sub: sub}
		case NotExists:
			return &SubPred{Kind: Exists, Sub: sub}
		case ScalarCmp:
			return &SubPred{Kind: ScalarCmp, Op: n.Op.Negate(), Left: n.Left, Sub: sub}
		case CmpSome:
			return &SubPred{Kind: CmpAll, Op: n.Op.Negate(), Left: n.Left, Sub: sub}
		case CmpAll:
			return &SubPred{Kind: CmpSome, Op: n.Op.Negate(), Left: n.Left, Sub: sub}
		default:
			panic("algebra: unknown SubKind")
		}
	default:
		panic(fmt.Sprintf("algebra: unknown predicate %T", p))
	}
}

// normalizeSubWhere applies negation push-down inside nested subquery
// bodies as well (the integrated algorithm normalizes the whole tree
// before translating).
func normalizeSubWhere(p Pred) Pred {
	if p == nil {
		return nil
	}
	return PushDownNegations(p)
}
