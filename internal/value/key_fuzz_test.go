package value

import (
	"bytes"
	"math"
	"testing"
)

// fuzzCell builds a cell of kind k%5 from the fuzzer's raw words: NULL,
// BOOL, INT, STRING or FLOAT (any bit pattern: ±0, subnormals, ±Inf and
// NaN payloads included).
func fuzzCell(k uint8, bits uint64, s string) Value {
	switch k % 5 {
	case 1:
		return Bool(bits&1 == 1)
	case 2:
		return Int(int64(bits))
	case 3:
		return Str(s)
	case 4:
		return Float(math.Float64frombits(bits))
	}
	return Null
}

// twin returns a cell Equal to v in another form where one exists: an
// INT as its FLOAT, an integral FLOAT as its INT, a zero with the other
// sign, a NaN with another payload (bits supplies it).
func twin(v Value, bits uint64) Value {
	switch v.Kind() {
	case KindInt:
		return Float(float64(v.AsInt()))
	case KindFloat:
		switch f := v.AsFloat(); {
		case f != f:
			return Float(math.Float64frombits(0x7ff8_0000_0000_0000 | bits&0x8007_ffff_ffff_ffff))
		case f == 0:
			return Float(-f)
		case f == math.Trunc(f) && math.Abs(f) <= 1<<53:
			return Int(int64(f))
		}
	}
	return v
}

// within2p53 reports whether v's equivalence class is exact under
// AppendKey: a non-number, or a number no larger than 2^53 in magnitude.
func within2p53(v Value) bool {
	switch v.Kind() {
	case KindInt:
		return v.AsInt() >= -(1<<53) && v.AsInt() <= 1<<53
	case KindFloat:
		return !(math.Abs(v.AsFloat()) > 1<<53) // NaN is within
	}
	return true
}

// FuzzKeyEquality: one equality for =, DISTINCT, GROUP BY and the set
// operations. Equal ⇔ equal AppendKey bytes within ±2^53, Equal ⇒ equal
// Hash, and Compare == 0 ⇔ Equal for non-NULL cells.
func FuzzKeyEquality(f *testing.F) {
	for _, c := range []struct {
		ka, kb uint8
		a, b   uint64
		twin   bool
	}{
		{4, 4, math.Float64bits(math.NaN()), 0xfff8_0000_0000_0000, false}, // two NaN payloads
		{4, 4, 0, 1 << 63, false},                           // 0.0, -0.0
		{4, 2, math.Float64bits(1), 1, false},               // FLOAT 1.0, INT 1
		{2, 4, 1<<53 + 1, math.Float64bits(1 << 53), false}, // beyond 2^53
		{2, 4, 1<<64 - 1<<53, 0, true},                      // INT -2^53 and its FLOAT
		{4, 4, 1, 0x8000_0000_0000_0001, false},             // ± smallest subnormal
		{4, 4, 0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000, false},
		{4, 4, 0x7ff8_0000_0000_0bad, 0xbad, true},
		{0, 1, 0, 0, false},
	} {
		f.Add(c.ka, c.kb, c.a, c.b, "x", "x", c.twin)
	}
	f.Fuzz(func(t *testing.T, ka, kb uint8, a, b uint64, sa, sb string, derive bool) {
		x, y := fuzzCell(ka, a, sa), fuzzCell(kb, b, sb)
		if derive {
			y = twin(x, b)
		}
		eq := Equal(x, y)
		if within2p53(x) && within2p53(y) && eq != bytes.Equal(AppendKey(nil, x), AppendKey(nil, y)) {
			t.Errorf("Equal(%v, %v) = %v, but AppendKey gives % x and % x", x, y, eq, AppendKey(nil, x), AppendKey(nil, y))
		}
		if eq && x.Hash() != y.Hash() {
			t.Errorf("Equal(%v, %v), but Hash gives %#x and %#x", x, y, x.Hash(), y.Hash())
		}
		if c, ok := Compare(x, y); !x.IsNull() && !y.IsNull() && (ok && c == 0) != eq {
			t.Errorf("Compare(%v, %v) = %d, %v; Equal = %v", x, y, c, ok, eq)
		}
	})
}
