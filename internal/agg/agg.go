// Package agg implements SQL aggregate functions with standard NULL
// semantics, exposed as incremental accumulators so the GMDJ operator
// and the hash-aggregation operator can fold detail tuples in a single
// scan.
//
// NULL rules follow SQL:1999 (the paper leans on these in the ALL-vs-
// MAX footnote): COUNT(*) counts rows; COUNT(x) counts non-NULL x;
// SUM/AVG/MIN/MAX ignore NULLs and yield NULL over the empty bag.
package agg

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// Func identifies an aggregate function.
type Func uint8

const (
	// CountStar is COUNT(*).
	CountStar Func = iota
	// Count is COUNT(x) — non-NULL count.
	Count
	// Sum is SUM(x).
	Sum
	// Avg is AVG(x).
	Avg
	// Min is MIN(x).
	Min
	// Max is MAX(x).
	Max
)

// String returns the SQL name of the function.
func (f Func) String() string {
	switch f {
	case CountStar:
		return "count(*)"
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		if name, ok := extendedName(f); ok {
			return name
		}
		return fmt.Sprintf("Func(%d)", uint8(f))
	}
}

// ResultType reports the value kind the aggregate produces given the
// input kind (used for schema inference).
func (f Func) ResultType(in value.Kind) value.Kind {
	switch f {
	case CountStar, Count:
		return value.KindInt
	case Avg:
		return value.KindFloat
	case Sum:
		if in == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	default:
		if k, ok := extendedResultType(f); ok {
			return k
		}
		return in
	}
}

// Spec is one aggregate term fᵢⱼ(cᵢⱼ) → name from the paper's
// aggregate lists lᵢ. Arg is nil for COUNT(*). As names the output
// column (the paper's `sum(F.NumBytes) → sum1` renaming).
type Spec struct {
	Func Func
	Arg  expr.Expr // nil for CountStar
	As   string
}

// String renders "sum(F.NumBytes) -> sum1".
func (s Spec) String() string {
	var inner string
	if s.Func == CountStar {
		inner = "count(*)"
	} else {
		inner = fmt.Sprintf("%s(%s)", s.Func, s.Arg)
	}
	if s.As == "" {
		return inner
	}
	return inner + " -> " + s.As
}

// Bind resolves the argument expression against the detail schema,
// returning a bound copy of the spec.
func (s Spec) Bind(schema *relation.Schema) (Spec, error) {
	if s.Arg == nil {
		if s.Func != CountStar {
			return Spec{}, fmt.Errorf("agg: %s requires an argument", s.Func)
		}
		return s, nil
	}
	b, err := s.Arg.Bind(schema)
	if err != nil {
		return Spec{}, fmt.Errorf("agg: binding %s: %w", s, err)
	}
	return Spec{Func: s.Func, Arg: b, As: s.As}, nil
}

// Accumulator folds values incrementally. Implementations are cheap
// value types; the GMDJ allocates one per (base tuple, spec) pair.
type Accumulator interface {
	// Add folds one detail tuple into the aggregate.
	Add(row relation.Tuple) error
	// Result returns the current aggregate value.
	Result() value.Value
}

// NewAccumulator builds an accumulator for a bound spec.
func NewAccumulator(s Spec) Accumulator {
	switch s.Func {
	case CountStar:
		return &countAcc{}
	case Count:
		return &countAcc{arg: s.Arg}
	case Sum:
		return &sumAcc{arg: s.Arg}
	case Avg:
		return &avgAcc{arg: s.Arg}
	case Min:
		return &extremeAcc{arg: s.Arg, want: -1}
	case Max:
		return &extremeAcc{arg: s.Arg, want: 1}
	default:
		if acc, ok := newExtendedAccumulator(s); ok {
			return acc
		}
		panic("agg: unknown aggregate " + s.Func.String())
	}
}

// NewRows sets every element of rows to a fresh accumulator row — one
// accumulator per bound spec, in order — cut from slabs: one
// []Accumulator across all rows and one typed slice per built-in spec,
// where the GMDJ's row per base tuple built singly costs
// len(rows) × (1 + len(specs)) allocations. Extended kinds keep
// NewAccumulator.
func NewRows(specs []Spec, rows [][]Accumulator) {
	w := len(specs)
	slab := make([]Accumulator, len(rows)*w)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	for j, s := range specs {
		switch proto := NewAccumulator(s).(type) {
		case *countAcc:
			cut(rows, j, *proto)
		case *sumAcc:
			cut(rows, j, *proto)
		case *avgAcc:
			cut(rows, j, *proto)
		case *extremeAcc:
			cut(rows, j, *proto)
		default:
			for i := range rows {
				rows[i][j] = NewAccumulator(s)
			}
		}
	}
}

// cut fills column j of rows with copies of proto held in one slice.
func cut[T any, P interface {
	*T
	Accumulator
}](rows [][]Accumulator, j int, proto T) {
	typed := make([]T, len(rows))
	for i := range typed {
		typed[i] = proto
		rows[i][j] = P(&typed[i])
	}
}

type countAcc struct {
	arg expr.Expr // nil means count(*)
	n   int64
}

func (a *countAcc) Add(row relation.Tuple) error {
	if a.arg == nil {
		a.n++
		return nil
	}
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) Result() value.Value { return value.Int(a.n) }

type sumAcc struct {
	arg     expr.Expr
	any     bool
	isFloat bool
	i       int64
	f       float64
}

func (a *sumAcc) Add(row relation.Tuple) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		a.any = true
		a.i += v.AsInt()
		a.f += float64(v.AsInt())
	case value.KindFloat:
		a.any = true
		a.isFloat = true
		a.f += v.AsFloat()
	default:
		return fmt.Errorf("agg: sum over %s", v.Kind())
	}
	return nil
}

func (a *sumAcc) Result() value.Value {
	if !a.any {
		return value.Null // SUM of the empty bag is NULL
	}
	if a.isFloat {
		return value.Float(a.f)
	}
	return value.Int(a.i)
}

type avgAcc struct {
	arg expr.Expr
	n   int64
	f   float64
}

func (a *avgAcc) Add(row relation.Tuple) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt, value.KindFloat:
		a.n++
		a.f += v.AsFloat()
	default:
		return fmt.Errorf("agg: avg over %s", v.Kind())
	}
	return nil
}

func (a *avgAcc) Result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	return value.Float(a.f / float64(a.n))
}

type extremeAcc struct {
	arg  expr.Expr
	want int // -1 for MIN, +1 for MAX
	best value.Value
	any  bool
}

func (a *extremeAcc) Add(row relation.Tuple) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best, a.any = v, true
		return nil
	}
	c, ok := value.Compare(v, a.best)
	if !ok {
		return fmt.Errorf("agg: min/max over mixed kinds %s and %s", v.Kind(), a.best.Kind())
	}
	if c == a.want {
		a.best = v
	}
	return nil
}

func (a *extremeAcc) Result() value.Value {
	if !a.any {
		return value.Null // MAX of nothing is NULL — the paper's footnote 2
	}
	return a.best
}

// OutputSchema returns the columns the spec list appends, named per
// each spec's As (or a synthesized fᵢ_R_cᵢ name when As is empty, the
// paper's default naming).
func OutputSchema(specs []Spec, detailName string) []relation.Column {
	cols := make([]relation.Column, len(specs))
	for i, s := range specs {
		name := s.As
		if name == "" {
			if s.Arg != nil {
				name = fmt.Sprintf("%s_%s_%s", s.Func, detailName, s.Arg)
			} else {
				name = fmt.Sprintf("count_%s", detailName)
			}
		}
		var in value.Kind
		cols[i] = relation.Column{Name: name, Type: s.Func.ResultType(in)}
	}
	return cols
}
