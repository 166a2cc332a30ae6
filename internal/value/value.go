// Package value defines the scalar value model of the engine: typed SQL
// values with NULL, comparison under SQL three-valued logic, arithmetic,
// and hashing. Every cell of every tuple in the engine is a Value.
//
// Value is a small struct rather than an interface so that hot loops
// (predicate evaluation inside the GMDJ scan, hash probes) stay free of
// per-cell heap allocation.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

const (
	// KindNull is the SQL NULL marker. A NULL Value carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is an immutable string.
	KindString
	// KindBool is a boolean. SQL predicates evaluate to Tri, not Value,
	// but boolean columns are still representable.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL. It is four words:
// a FLOAT keeps its IEEE-754 bits in i, and the leading zero-size field
// (no padding) stops == compiling, which would tell -0.0 from 0.0.
type Value struct {
	_    [0]func()
	kind Kind
	i    int64 // payload: KindInt, KindBool (0/1), KindFloat (math.Float64bits)
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// float is a FLOAT's payload, every bit (a NaN's too) as stored.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the runtime type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if v is not an INT;
// use Kind first when the type is not statically known.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(kindError{"AsInt", v.kind})
	}
	return v.i
}

// AsFloat returns the float payload, widening INT to FLOAT.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt:
		return float64(v.i)
	}
	panic(kindError{"AsFloat", v.kind})
}

// AsString returns the string payload. It panics if v is not a STRING.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(kindError{"AsString", v.kind})
	}
	return v.s
}

// AsBool returns the boolean payload. It panics if v is not a BOOL.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(kindError{"AsBool", v.kind})
	}
	return v.i != 0
}

// kindError is an accessor's panic on a Value of another kind. Its
// message is built when read, which keeps the accessors inlinable.
type kindError struct {
	op   string
	kind Kind
}

func (e kindError) Error() string { return "value: " + e.op + " on " + e.kind.String() }

// String renders v for display (and CSV output). NULL renders as the
// empty marker "NULL".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// numericPair widens two numeric values to a common domain.
// ok is false when either side is non-numeric.
func numericPair(a, b Value) (af, bf float64, bothInt bool, ok bool) {
	an := a.kind == KindInt || a.kind == KindFloat
	bn := b.kind == KindInt || b.kind == KindFloat
	if !an || !bn {
		return 0, 0, false, false
	}
	bothInt = a.kind == KindInt && b.kind == KindInt
	return a.AsFloat(), b.AsFloat(), bothInt, true
}

// CompareFloat is the numeric domain's total order, shared by Compare
// and the typed predicate kernels (expr.Pred): three-way over < and >,
// and in the fall-through — equal, or a NaN on either side — NaN equals
// NaN and sorts above every other number (PostgreSQL's rule), so sorts,
// zone maps and sorted indexes keep a total order and "= 7" does not
// select NaN.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a != a && b == b:
		return 1
	case a == a && b != b:
		return -1
	}
	return 0
}

// Compare orders two non-NULL values. It returns -1, 0, or +1 and ok
// reporting whether the two values were comparable (same domain, with
// INT and FLOAT sharing the numeric domain). Comparing with NULL is the
// caller's concern: SQL comparisons must go through the Tri-returning
// predicate helpers below.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.kind == KindString && b.kind == KindString {
		switch {
		case a.s < b.s:
			return -1, true
		case a.s > b.s:
			return 1, true
		}
		return 0, true
	}
	if a.kind == b.kind && (a.kind == KindInt || a.kind == KindBool) {
		switch {
		case a.i < b.i:
			return -1, true
		case a.i > b.i:
			return 1, true
		}
		return 0, true
	}
	af, bf := a.float(), b.float()
	if a.kind != KindFloat || b.kind != KindFloat { // INT beside FLOAT widens; anything else is incomparable
		var ok bool
		if af, bf, _, ok = numericPair(a, b); !ok {
			return 0, false
		}
	}
	return CompareFloat(af, bf), true
}

// Equal reports non-SQL structural equality: NULL equals NULL and
// values of incomparable kinds are unequal. Use for testing, map keys,
// and DISTINCT (SQL's grouping treats NULLs as equal).
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// HashInit and FoldHash are the engine's one key fold: a multi-column
// key hashes as FoldHash applied left to right from HashInit (FNV-1a
// over the cells' 64-bit hashes). relation.Tuple.KeyHash folds rows
// with it and storage.Segment.KeyHashes folds packed columns with it,
// which is what keeps build side, probe side and segment bit-compatible.
const HashInit uint64 = 14695981039346656037 // FNV offset basis

const fnvPrime = 1099511628211

// FoldHash folds one more cell into a running key hash.
func FoldHash(acc uint64, v Value) uint64 { return (acc ^ v.Hash()) * fnvPrime }

// Hash returns a hash of v suitable for hash-join and GMDJ buckets.
// Values that are Equal hash identically: INT 1 and FLOAT 1.0 share a
// hash, and so do 0.0 and -0.0 and every NaN payload (stored cells keep
// their bits; only the hash folds them away). It is a fixed function — the same in every
// process, so spill cuts and shard assignments replay (TestHashStable
// pins it) — and ends in an avalanche step, so callers may use the low
// bits (h % shards) and the high bits (h >> (64-k)) alike.
func (v Value) Hash() uint64 {
	// salt separates the kind domains before mixing; INT and FLOAT share
	// one so that 1 and 1.0 collide.
	const salt = 0x9E3779B97F4A7C15
	switch v.kind {
	case KindInt:
		return mix64(math.Float64bits(float64(v.i)) + salt)
	case KindFloat:
		f := v.float()
		if f == 0 {
			f = 0 // drops the sign bit of -0.0, which compares equal to 0.0
		} else if f != f {
			f = math.NaN() // one payload: every NaN compares equal to every other
		}
		return mix64(math.Float64bits(f) + salt)
	case KindString:
		h := HashInit
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime
		}
		return mix64(h + salt>>1)
	case KindBool:
		return mix64(uint64(v.i) + salt>>2)
	}
	return mix64(salt >> 3) // NULL
}

// mix64 is the 64-bit avalanche finalizer of MurmurHash3: every input
// bit flips every output bit with probability about one half.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add returns a+b with SQL NULL propagation: NULL if either side is
// NULL. Integer addition stays integer; mixed arithmetic widens.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b with SQL NULL propagation.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b with SQL NULL propagation.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b with SQL NULL propagation. Division always yields a
// FLOAT; dividing by zero yields NULL (matching the engine's policy of
// never raising runtime arithmetic faults mid-scan).
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	af, bf, _, ok := numericPair(a, b)
	if !ok {
		return Null, fmt.Errorf("value: cannot divide %s by %s", a.kind, b.kind)
	}
	if bf == 0 {
		return Null, nil
	}
	return Float(af / bf), nil
}

func arith(a, b Value, op byte) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	af, bf, bothInt, ok := numericPair(a, b)
	if !ok {
		return Null, fmt.Errorf("value: cannot apply %c to %s and %s", op, a.kind, b.kind)
	}
	if bothInt {
		ai, bi := a.i, b.i
		switch op {
		case '+':
			return Int(ai + bi), nil
		case '-':
			return Int(ai - bi), nil
		case '*':
			return Int(ai * bi), nil
		}
	}
	switch op {
	case '+':
		return Float(af + bf), nil
	case '-':
		return Float(af - bf), nil
	case '*':
		return Float(af * bf), nil
	}
	panic("value: unknown arithmetic op")
}
