package agg

import (
	"fmt"
	"math"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// Additional aggregate functions beyond the paper's core set; useful
// for the examples and for exercising the accumulator framework.
const (
	// CountDistinct is COUNT(DISTINCT x): distinct non-NULL values.
	CountDistinct Func = iota + 100
	// Var is the population variance of non-NULL numeric values
	// (NULL over fewer than one value).
	Var
	// StdDev is the population standard deviation.
	StdDev
)

// extendedName returns the SQL name for extended functions.
func extendedName(f Func) (string, bool) {
	switch f {
	case CountDistinct:
		return "count(distinct)", true
	case Var:
		return "var", true
	case StdDev:
		return "stddev", true
	default:
		return "", false
	}
}

// extendedResultType reports output kinds for extended functions.
func extendedResultType(f Func) (value.Kind, bool) {
	switch f {
	case CountDistinct:
		return value.KindInt, true
	case Var, StdDev:
		return value.KindFloat, true
	default:
		return value.KindNull, false
	}
}

// newExtendedAccumulator builds accumulators for extended functions;
// ok is false for core functions.
func newExtendedAccumulator(s Spec) (Accumulator, bool) {
	switch s.Func {
	case CountDistinct:
		return &distinctAcc{arg: s.Arg, seen: map[string]bool{}}, true
	case Var:
		return &momentsAcc{arg: s.Arg}, true
	case StdDev:
		return &momentsAcc{arg: s.Arg, sqrt: true}, true
	default:
		return nil, false
	}
}

type distinctAcc struct {
	arg  exprEval
	seen map[string]bool
}

// exprEval is the subset of expr.Expr the accumulators need; declared
// locally to avoid an import cycle in doc examples.
type exprEval interface {
	Eval(row relation.Tuple) (value.Value, error)
}

func (a *distinctAcc) Add(row relation.Tuple) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	a.seen[fmt.Sprintf("%d\x00%s", v.Kind(), v.String())] = true
	return nil
}

func (a *distinctAcc) Result() value.Value { return value.Int(int64(len(a.seen))) }

// momentsAcc tracks count/mean/M2 (Welford) for variance and stddev.
type momentsAcc struct {
	arg  exprEval
	sqrt bool
	n    int64
	mean float64
	m2   float64
}

func (a *momentsAcc) Add(row relation.Tuple) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt, value.KindFloat:
		x := v.AsFloat()
		a.n++
		d := x - a.mean
		a.mean += d / float64(a.n)
		a.m2 += d * (x - a.mean)
		return nil
	default:
		return fmt.Errorf("agg: variance over %s", v.Kind())
	}
}

func (a *momentsAcc) Result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	variance := a.m2 / float64(a.n)
	if a.sqrt {
		return value.Float(math.Sqrt(variance))
	}
	return value.Float(variance)
}
