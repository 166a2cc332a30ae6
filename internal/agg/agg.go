// Package agg implements SQL aggregate functions with standard NULL
// semantics as incremental fold state held in typed columns (State), so
// the GMDJ operator and the hash-aggregation operator can fold detail
// tuples in a single scan.
//
// NULL rules follow SQL:1999 (the paper leans on these in the ALL-vs-
// MAX footnote): COUNT(*) counts rows; COUNT(x) counts non-NULL x;
// SUM/AVG/MIN/MAX ignore NULLs and yield NULL over the empty bag.
package agg

import (
	"fmt"
	"math"
	"strings"

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

// State is the fold state of one spec list over positions — base
// tuples in the GMDJ, groups in GROUP BY — held as typed columns, one
// set per spec (struct of arrays), not an object per (position, spec).
// Goroutines may fold disjoint positions of one State at once.
type State struct {
	cols []column
	n    int // positions
}

// column is one spec's state; which slices it uses depends on fn:
//
//	COUNT(*), COUNT(x)  n
//	SUM                 i (INT sum), f (FLOAT sum), flags (sumAny, sumFloat)
//	AVG                 f (sum), n (count)
//	MIN, MAX            v: NULL while unset, as a NULL input is never folded
//	VAR, STDDEV         n, f (mean), m2: Welford's
//	COUNT(DISTINCT)     sets, one per position, made at its first value
type column struct {
	fn    Func
	arg   expr.Expr // nil for COUNT(*)
	at    int       // arg's row position when it is a bare column, else -1
	n, i  []int64
	f, m2 []float64
	flags []uint8
	v     []value.Value
	sets  []map[string]struct{}
}

const (
	sumAny   = 1 << iota // a non-NULL value was folded
	sumFloat             // a FLOAT was: the result is the float sum
)

// New returns the state of bound specs over n positions, each the empty
// bag.
func New(specs []Spec, n int) *State {
	s := &State{cols: make([]column, len(specs)), n: n}
	for j, sp := range specs {
		c := &s.cols[j]
		c.fn, c.arg, c.at = sp.Func, sp.Arg, -1
		if col, ok := sp.Arg.(*expr.Col); ok {
			c.at = col.Index()
		}
		c.size(n)
	}
	return s
}

// Grow adds one position, the empty bag, and returns it.
func (s *State) Grow() int {
	s.n++
	for j := range s.cols {
		s.cols[j].size(s.n)
	}
	return s.n - 1
}

// size extends the column's slices to n positions.
func (c *column) size(n int) {
	switch c.fn {
	case CountStar, Count:
		c.n = extend(c.n, n)
	case Sum:
		c.i, c.f, c.flags = extend(c.i, n), extend(c.f, n), extend(c.flags, n)
	case Avg:
		c.n, c.f = extend(c.n, n), extend(c.f, n)
	case Min, Max:
		c.v = extend(c.v, n)
	case Var, StdDev:
		c.n, c.f, c.m2 = extend(c.n, n), extend(c.f, n), extend(c.m2, n)
	case CountDistinct:
		c.sets = extend(c.sets, n)
	default:
		panic("agg: unknown aggregate " + c.fn.String())
	}
}

// extend appends zero elements to xs up to length n.
func extend[T any](xs []T, n int) []T { return append(xs, make([]T, n-len(xs))...) }

// Add folds row into spec j's state at position pos. COUNT(*) evaluates
// nothing; a bare column argument is read where it lies.
func (s *State) Add(j, pos int, row relation.Tuple) error {
	c := &s.cols[j]
	if c.fn == CountStar {
		c.n[pos]++
		return nil
	}
	return c.add(pos, row)
}

// AddValue folds v, spec j's argument already read, at position pos.
func (s *State) AddValue(j, pos int, v value.Value) error {
	return s.cols[j].addValue(pos, v)
}

// AddVector folds arg's cell at row rows[k] into spec j's state at pos[k],
// in k order (COUNT(*) reads no arg): COUNT, and SUM or AVG over an INT or
// FLOAT vector, on its slices, the rest a cell at a time as AddValue.
func (s *State) AddVector(j int, pos, rows []int32, arg *relation.ColVec) error {
	c := &s.cols[j]
	kind := value.KindNull
	if arg != nil && arg.Boxed == nil && (c.fn == Sum || c.fn == Avg) {
		kind = arg.Kind
	}
	// COUNT(*) and AVG, the loops a chunk runs most, choose nothing per row.
	switch {
	case c.fn == CountStar:
		for _, p := range pos {
			c.n[p]++
		}
		return nil
	case c.fn == Avg && kind == value.KindFloat:
		addAvg(c, pos, rows, arg.Nulls, arg.Floats)
		return nil
	case c.fn == Avg && kind == value.KindInt:
		addAvg(c, pos, rows, arg.Nulls, arg.Ints)
		return nil
	}
	for k, p := range pos {
		switch r := rows[k]; {
		case arg.Nulls[r]:
		case c.fn == Count:
			c.n[p]++
		case kind == value.KindFloat: // SUM
			c.f[p] += arg.Floats[r]
			c.flags[p] |= sumAny | sumFloat
		case kind == value.KindInt:
			c.f[p] += float64(arg.Ints[r])
			c.i[p] += arg.Ints[r]
			c.flags[p] |= sumAny
		default:
			if err := c.addValue(int(p), arg.Value(int(r))); err != nil {
				return err
			}
		}
	}
	return nil
}

// addAvg folds xs[rows[k]] into AVG's sum and count at pos[k], but
// where the cell is NULL.
func addAvg[T int64 | float64](c *column, pos, rows []int32, nulls []bool, xs []T) {
	for k, p := range pos {
		if r := rows[k]; !nulls[r] {
			c.f[p] += float64(xs[r])
			c.n[p]++
		}
	}
}

func (c *column) add(pos int, row relation.Tuple) error {
	if uint(c.at) < uint(len(row)) {
		return c.addValue(pos, row[c.at])
	}
	v, err := c.arg.Eval(row)
	if err != nil {
		return err
	}
	return c.addValue(pos, v)
}

func (c *column) addValue(pos int, v value.Value) error {
	if v.IsNull() {
		return nil
	}
	numeric := v.Kind() == value.KindInt || v.Kind() == value.KindFloat
	switch c.fn {
	case Count:
		c.n[pos]++
	case Sum:
		if !numeric {
			return fmt.Errorf("agg: sum over %s", v.Kind())
		}
		if c.flags[pos] |= sumAny; v.Kind() == value.KindFloat {
			c.flags[pos] |= sumFloat
		} else {
			c.i[pos] += v.AsInt()
		}
		c.f[pos] += v.AsFloat()
	case Avg:
		if !numeric {
			return fmt.Errorf("agg: avg over %s", v.Kind())
		}
		c.n[pos]++
		c.f[pos] += v.AsFloat()
	case Var, StdDev:
		if !numeric {
			return fmt.Errorf("agg: variance over %s", v.Kind())
		}
		x := v.AsFloat()
		c.n[pos]++
		d := x - c.f[pos]
		c.f[pos] += d / float64(c.n[pos])
		c.m2[pos] += d * (x - c.f[pos])
	case Min, Max:
		best := c.v[pos]
		if best.IsNull() {
			c.v[pos] = v
			return nil
		}
		cmp, ok := value.Compare(v, best)
		if !ok {
			return fmt.Errorf("agg: min/max over mixed kinds %s and %s", v.Kind(), best.Kind())
		}
		if cmp == -1 && c.fn == Min || cmp == 1 && c.fn == Max {
			c.v[pos] = v
		}
	case CountDistinct:
		if c.sets[pos] == nil {
			c.sets[pos] = map[string]struct{}{}
		}
		var buf [32]byte
		c.sets[pos][string(value.AppendKey(buf[:0], v))] = struct{}{} // Equal cells, one key
	}
	return nil
}

// Result returns spec j's aggregate at position pos: NULL over the
// empty bag for all but the counts, which give 0.
func (s *State) Result(j, pos int) value.Value {
	c := &s.cols[j]
	switch c.fn {
	case CountStar, Count:
		return value.Int(c.n[pos])
	case Sum:
		if c.flags[pos]&sumFloat != 0 {
			return value.Float(c.f[pos])
		} else if c.flags[pos]&sumAny != 0 {
			return value.Int(c.i[pos])
		}
	case Avg:
		if c.n[pos] > 0 {
			return value.Float(c.f[pos] / float64(c.n[pos]))
		}
	case Var, StdDev:
		if n := c.n[pos]; n > 0 && c.fn == Var {
			return value.Float(c.m2[pos] / float64(n))
		} else if n > 0 {
			return value.Float(math.Sqrt(c.m2[pos] / float64(n)))
		}
	case CountDistinct:
		return value.Int(int64(len(c.sets[pos])))
	case Min, Max:
		return c.v[pos] // MAX of nothing is NULL — the paper's footnote 2
	}
	return value.Null
}

// Scatter copies position i of s to position to[i] of dst, column by
// column; dst holds the same specs.
func (s *State) Scatter(dst *State, to []int32) {
	for j := range s.cols {
		c, d := &s.cols[j], &dst.cols[j]
		scatter(d.n, c.n, to)
		scatter(d.i, c.i, to)
		scatter(d.f, c.f, to)
		scatter(d.m2, c.m2, to)
		scatter(d.flags, c.flags, to)
		scatter(d.v, c.v, to)
		scatter(d.sets, c.sets, to)
	}
}

func scatter[T any](dst, src []T, to []int32) {
	for i, x := range src {
		dst[to[i]] = x
	}
}

// OutputSchema returns the columns the spec list appends, named per
// each spec's As (or a synthesized fᵢ_R_cᵢ name when As is empty, the
// paper's default naming, with the argument's dots made underscores so
// that the name reads back as one unqualified column).
func OutputSchema(specs []Spec, detailName string) []relation.Column {
	cols := make([]relation.Column, len(specs))
	for i, s := range specs {
		name := s.As
		if name == "" {
			if s.Arg != nil {
				name = fmt.Sprintf("%s_%s_%s", s.Func, detailName, strings.ReplaceAll(s.Arg.String(), ".", "_"))
			} else {
				name = fmt.Sprintf("count_%s", detailName)
			}
		}
		var in value.Kind
		cols[i] = relation.Column{Name: name, Type: s.Func.ResultType(in)}
	}
	return cols
}
