package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestValueLayout pins the cell layout every resident row pays for:
// four words, and no == (which would compare FLOAT bits, so -0.0 would
// not equal 0.0). A later layout change moves this figure on purpose.
func TestValueLayout(t *testing.T) {
	typ := reflect.TypeFor[Value]()
	if got := typ.Size(); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	if typ.Comparable() {
		t.Error("Value is comparable; == on Values must not compile")
	}
}

// TestFloatPayloadBits: a FLOAT keeps every bit of its float64 through
// Float, AsFloat and the wire form, and the wire and key bytes are the
// ones committed segments and spill files already hold.
func TestFloatPayloadBits(t *testing.T) {
	cases := []struct {
		bits     uint64
		bin, key []byte
	}{
		{0x8000000000000000, // -0.0
			[]byte{2, 0, 0, 0, 0, 0, 0, 0, 0x80}, []byte{1, 0}},
		{0x7ff0000000000000, // +Inf
			[]byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, []byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}},
		{0xfff0000000000000, // -Inf
			[]byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}, []byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}},
		{0x0000000000000001, // smallest subnormal
			[]byte{2, 1, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 1, 0, 0, 0, 0, 0, 0, 0}},
		{0x7fefffffffffffff, // MaxFloat64
			[]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}, []byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}},
		{0x7ff8000000000bad, // quiet NaN with a payload
			[]byte{2, 0xad, 0x0b, 0, 0, 0, 0, 0xf8, 0x7f}, []byte{2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}}, // key: the one NaN payload
	}
	for _, c := range cases {
		v := Float(math.Float64frombits(c.bits))
		if got := math.Float64bits(v.AsFloat()); got != c.bits {
			t.Errorf("Float(%#x).AsFloat() has bits %#x", c.bits, got)
		}
		if got := AppendBinary(nil, v); !bytes.Equal(got, c.bin) {
			t.Errorf("AppendBinary(%#x) = % x, want % x", c.bits, got, c.bin)
		}
		if got := AppendKey(nil, v); !bytes.Equal(got, c.key) {
			t.Errorf("AppendKey(%#x) = % x, want % x", c.bits, got, c.key)
		}
		r := NewReader(c.bin)
		if got := r.Value(); r.Finish() != nil || got.Kind() != KindFloat || math.Float64bits(got.AsFloat()) != c.bits {
			t.Errorf("decoding % x gave %v (%v)", c.bin, got, r.Err())
		}
	}
	zero, negZero := Float(0), Float(math.Copysign(0, -1))
	if !Equal(zero, negZero) || zero.Hash() != negZero.Hash() {
		t.Error("0.0 and -0.0 must be Equal and hash alike")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "STRING",
		KindBool:   "BOOL",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
	if !Equal(v, Null) {
		t.Fatal("zero Value must Equal Null")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 {
		t.Error("Int round-trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round-trip failed")
	}
	if Str("hi").AsString() != "hi" {
		t.Error("Str round-trip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round-trip failed")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat must widen INT")
	}
}

// TestAccessorPanics: an accessor on another kind panics, and the
// panic reads "value: <accessor> on <kind>".
func TestAccessorPanics(t *testing.T) {
	mustPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", want)
			} else if got := fmt.Sprint(r); got != want {
				t.Errorf("panic %q, want %q", got, want)
			}
		}()
		f()
	}
	mustPanic("value: AsInt on STRING", func() { Str("x").AsInt() })
	mustPanic("value: AsString on INT", func() { Int(1).AsString() })
	mustPanic("value: AsBool on INT", func() { Int(1).AsBool() })
	mustPanic("value: AsFloat on STRING", func() { Str("x").AsFloat() })
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{Str("abc"), "abc"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Float(1.5), Int(2), -1, true},
		{Int(2), Float(1.5), 1, true},
		{Float(2), Int(2), 0, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{Str("c"), Str("b"), 1, true},
		{Bool(false), Bool(true), -1, true},
		{Bool(true), Bool(true), 0, true},
		{Null, Int(1), 0, false},
		{Int(1), Null, 0, false},
		{Int(1), Str("1"), 0, false},
		{Bool(true), Int(1), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v,%v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestEqualTreatsNullAsEqual(t *testing.T) {
	if !Equal(Null, Null) {
		t.Error("Equal(NULL, NULL) must be true (grouping semantics)")
	}
	if Equal(Null, Int(0)) {
		t.Error("Equal(NULL, 0) must be false")
	}
	if Equal(Int(1), Str("1")) {
		t.Error("Equal across incomparable kinds must be false")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(1), Float(1.0)},
		{Float(0), Float(math.Copysign(0, -1))},
		{Int(0), Float(math.Copysign(0, -1))},
		{Int(-7), Int(-7)},
		{Str("x"), Str("x")},
		{Null, Null},
		{Bool(true), Bool(true)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("test setup: %v and %v should be Equal", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Equal values %v and %v hash differently", p[0], p[1])
		}
	}
}

// TestHashSpreads checks what the hash's consumers rely on: distinct
// keys rarely collide, and both ends of the word are usable — the join
// index shards by h % n and the spill regime cuts by the top bits.
func TestHashSpreads(t *testing.T) {
	const n = 4000
	ints := make([]Value, n)
	ips := make([]Value, n)
	for i := range ints {
		ints[i] = Int(int64(i))
		ips[i] = Str(fmt.Sprintf("10.0.%d.%d", i/250, i%250+1)) // datagen's netflow user IPs
	}
	for name, keys := range map[string][]Value{"sequential ints": ints, "netflow IPs": ips} {
		seen := map[uint64]bool{}
		buckets := map[string][]int{"h%2": make([]int, 2), "h%4": make([]int, 4), "h>>61": make([]int, 8)}
		for _, k := range keys {
			h := k.Hash()
			seen[h] = true
			buckets["h%2"][h%2]++
			buckets["h%4"][h%4]++
			buckets["h>>61"][h>>61]++
		}
		if len(seen) != n {
			t.Errorf("%s: %d distinct hashes of %d", name, len(seen), n)
		}
		for cut, counts := range buckets {
			uniform := float64(n) / float64(len(counts))
			for b, c := range counts {
				if math.Abs(float64(c)-uniform) > 0.10*uniform {
					t.Errorf("%s: %s bucket %d holds %d keys, uniform is %.0f ±10%%", name, cut, b, c, uniform)
				}
			}
		}
	}
}

// TestHashStable pins the hash function itself. It is the same in every
// process (spill cuts, shard assignment and a shrunk oracle failure all
// replay), so changing it is a visible diff here, not an accident.
func TestHashStable(t *testing.T) {
	cells := []struct {
		v    Value
		want uint64
	}{
		{Null, 0x7038322720852220},
		{Int(42), 0x7e4397218aa2887d},
		{Float(42), 0x7e4397218aa2887d},
		{Float(-2.5), 0x20f7d3e446e3e43d},
		{Str("10.0.0.5"), 0x4cff78c08f00465a},
		{Bool(true), 0xc10b72c9b0390e44},
	}
	for _, c := range cells {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("%v (%s): Hash = %#x, want %#x", c.v, c.v.Kind(), got, c.want)
		}
	}
	fold := HashInit
	for _, v := range []Value{Int(7), Str("FTP"), Float(0.5)} {
		fold = FoldHash(fold, v)
	}
	if want := uint64(0xd3983abab9376a7e); fold != want {
		t.Errorf("three-cell fold = %#x, want %#x", fold, want)
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Equal(got, want) {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	v, err := Add(Int(2), Int(3))
	check(v, err, Int(5))
	v, err = Sub(Int(2), Int(3))
	check(v, err, Int(-1))
	v, err = Mul(Int(2), Int(3))
	check(v, err, Int(6))
	v, err = Add(Int(2), Float(0.5))
	check(v, err, Float(2.5))
	v, err = Div(Int(7), Int(2))
	check(v, err, Float(3.5))
	v, err = Div(Int(7), Int(0))
	check(v, err, Null)
}

func TestArithmeticNullPropagation(t *testing.T) {
	ops := []func(a, b Value) (Value, error){Add, Sub, Mul, Div}
	for i, op := range ops {
		if v, err := op(Null, Int(1)); err != nil || !v.IsNull() {
			t.Errorf("op %d: NULL lhs should yield NULL, got %v %v", i, v, err)
		}
		if v, err := op(Int(1), Null); err != nil || !v.IsNull() {
			t.Errorf("op %d: NULL rhs should yield NULL, got %v %v", i, v, err)
		}
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("adding string and int should error")
	}
	if _, err := Div(Str("a"), Int(1)); err == nil {
		t.Error("dividing string by int should error")
	}
}

func TestTriTables(t *testing.T) {
	// Kleene truth tables.
	and := [3][3]Tri{
		//            F        T        U
		/* F */ {False, False, False},
		/* T */ {False, True, Unknown},
		/* U */ {False, Unknown, Unknown},
	}
	or := [3][3]Tri{
		/* F */ {False, True, Unknown},
		/* T */ {True, True, True},
		/* U */ {Unknown, True, Unknown},
	}
	vals := []Tri{False, True, Unknown}
	for i, a := range vals {
		for j, b := range vals {
			if got := a.And(b); got != and[i][j] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[i][j])
			}
			if got := a.Or(b); got != or[i][j] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[i][j])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT table wrong")
	}
}

func TestCmpOpApply(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b Value
		want Tri
	}{
		{EQ, Int(1), Int(1), True},
		{EQ, Int(1), Int(2), False},
		{NE, Int(1), Int(2), True},
		{LT, Int(1), Int(2), True},
		{LE, Int(2), Int(2), True},
		{GT, Int(3), Int(2), True},
		{GE, Int(1), Int(2), False},
		{EQ, Null, Int(1), Unknown},
		{NE, Int(1), Null, Unknown},
		{LT, Str("a"), Int(1), Unknown}, // incomparable
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestCmpOpNegateFlip(t *testing.T) {
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %v", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("Flip not involutive for %v", op)
		}
	}
	if EQ.Negate() != NE || LT.Negate() != GE || LE.Negate() != GT {
		t.Error("Negate table wrong")
	}
	if LT.Flip() != GT || LE.Flip() != GE || EQ.Flip() != EQ {
		t.Error("Flip table wrong")
	}
}

// Property: for non-NULL comparable values, op.Apply agrees with
// op.Negate().Apply negated, and flipping operands matches Flip.
func TestCmpOpProperties(t *testing.T) {
	f := func(a, b int64, opRaw uint8) bool {
		op := CmpOp(opRaw % 6)
		va, vb := Int(a), Int(b)
		direct := op.Apply(va, vb)
		negated := op.Negate().Apply(va, vb)
		if direct.Not() != negated {
			return false
		}
		flipped := op.Flip().Apply(vb, va)
		return direct == flipped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Equal-consistent on ints and
// floats.
func TestCompareProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN is out of the SQL domain our generator uses
		}
		va, vb := Float(a), Float(b)
		c1, ok1 := Compare(va, vb)
		c2, ok2 := Compare(vb, va)
		if !ok1 || !ok2 {
			return false
		}
		return c1 == -c2 && (c1 == 0) == Equal(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriString(t *testing.T) {
	if False.String() != "false" || True.String() != "true" || Unknown.String() != "unknown" {
		t.Error("Tri.String wrong")
	}
}

func TestCmpOpString(t *testing.T) {
	want := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q want %q", op, op.String(), s)
		}
	}
}

// TestNaNTotalOrder: NaN equals NaN alone and sorts above every other
// number, INT and +Inf included, whichever side it is on — a total order
// for sorts, zone maps and sorted indexes — and every NaN payload hashes
// alike, as Equal values must.
func TestNaNTotalOrder(t *testing.T) {
	nan, payload := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())|0xbeef)
	if !math.IsNaN(payload) || math.Float64bits(payload) == math.Float64bits(nan) {
		t.Fatal("payload is not a second NaN")
	}
	for _, x := range []Value{Int(7), Int(math.MaxInt64), Float(-0.0), Float(7), Float(math.Inf(1)), Float(math.Inf(-1))} {
		if c, ok := Compare(Float(nan), x); !ok || c != 1 {
			t.Errorf("Compare(NaN, %v) = %d, %v; want +1", x, c, ok)
		}
		if c, ok := Compare(x, Float(nan)); !ok || c != -1 {
			t.Errorf("Compare(%v, NaN) = %d, %v; want -1", x, c, ok)
		}
		if EQ.Apply(Float(nan), x) != False || GT.Apply(Float(nan), x) != True {
			t.Errorf("NaN = %v or NaN <= %v", x, x)
		}
	}
	if c, ok := Compare(Float(nan), Float(payload)); !ok || c != 0 || !Equal(Float(payload), Float(nan)) {
		t.Errorf("Compare(NaN, NaN') = %d, %v; want 0", c, ok)
	}
	if Float(nan).Hash() != Float(payload).Hash() {
		t.Error("two NaN payloads compare equal yet hash apart")
	}
	if CompareFloat(0, math.Copysign(0, -1)) != 0 || CompareFloat(1<<53, 1<<53+1) != 0 {
		t.Error("CompareFloat tells 0.0 from -0.0, or 2^53 from 2^53+1 as float64")
	}
}

// TestDefensiveDecoding: a Reader over truncated, garbage or forged
// cells records an error, never panics. A forged string length of
// 2^64-1 wraps to -1 as an int; bounds arithmetic on it used to slice
// backwards and panic. A count past the bytes remaining reads as 0.
func TestDefensiveDecoding(t *testing.T) {
	var enc []byte
	for _, v := range []Value{Int(-42), Float(3.25), Str("héllo – utf8"), Bool(true), Null, Str("")} {
		enc = AppendBinary(enc, v)
	}
	for cut := 0; cut <= len(enc); cut++ {
		r := NewReader(enc[:cut])
		for r.Err() == nil && r.Len() > 0 {
			r.Value()
		}
	}
	r := NewReader([]byte{0xFF, 0xFF, 0xFF})
	if r.Value(); r.Err() == nil {
		t.Fatal("garbage cell decoded")
	}
	r = NewReader(append([]byte{byte(KindString)}, binary.AppendUvarint(nil, math.MaxUint64)...))
	if r.Value(); r.Err() == nil {
		t.Fatal("a 2^64-1 byte string decoded")
	}
	for _, claim := range []uint64{math.MaxUint64, 3} {
		r := NewReader(append(binary.AppendUvarint(nil, claim), 0))
		if n := r.Count(); n != 0 || r.Err() == nil {
			t.Fatalf("a count of %d over one byte read as %d (err %v)", claim, n, r.Err())
		}
	}
}
