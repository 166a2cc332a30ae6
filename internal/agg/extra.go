package agg

import "github.com/olaplab/gmdj/internal/value"

// Additional aggregate functions beyond the paper's core set; useful
// for the examples and for exercising the fold state.
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
