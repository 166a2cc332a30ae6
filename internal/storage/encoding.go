package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// Column block encodings. Each column of a segment is serialized as
// one payload (wrapped in its own GSPL frame by segfile.go):
//
//	enc (1B) | kind (1B) | rows (uvarint) | body
//
// with four encodings chosen per column by simple statistics:
//
//	encPlain  null bitmap, then every non-NULL cell back to back
//	encDict   (STRING only) null bitmap, dictionary, per-cell indexes
//	encRLE    runs of bit-identical cells (NULL runs included)
//	encBoxed  kind-tagged cells verbatim (mixed-kind columns)
//
// Typed cells are written by value.AppendPayload (no kind tag: the
// header carries it). Decoding is defensive — any malformed input
// yields an error, never a panic or an oversized allocation
// (FuzzSegmentDecode leans on this).
const (
	encPlain byte = iota
	encDict
	encRLE
	encBoxed
)

// encodeColumn serializes one column, choosing the encoding.
func encodeColumn(c *relation.ColVec) []byte {
	n := c.Len()
	out := []byte{0, byte(c.Kind)}
	out = binary.AppendUvarint(out, uint64(n))
	switch {
	case c.Boxed != nil:
		out[0] = encBoxed
		for _, v := range c.Boxed {
			out = value.AppendBinary(out, v)
		}
	case runCount(c)*2 <= n:
		out[0] = encRLE
		out = appendRLE(out, c)
	case c.Kind == value.KindString && distinctStrings(c)*2 <= nonNullCount(c):
		out[0] = encDict
		out = appendBitmap(out, c.Nulls)
		out = appendDict(out, c)
	default:
		out[0] = encPlain
		out = appendBitmap(out, c.Nulls)
		for i := 0; i < n; i++ {
			if !c.Nulls[i] {
				out = value.AppendPayload(out, c.Value(i))
			}
		}
	}
	return out
}

// decodeColumn parses a column payload back into a ColVec. The row
// count is validated against what the encoding's body can possibly
// describe before anything row-sized is allocated, so a forged header
// cannot force an oversized allocation.
func decodeColumn(buf []byte) (*relation.ColVec, error) {
	r := value.NewReader(buf)
	enc := r.Byte()
	kind := value.Kind(r.Byte())
	n64 := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	switch kind {
	case value.KindNull, value.KindInt, value.KindFloat, value.KindString, value.KindBool:
	default:
		return nil, fmt.Errorf("column kind %d unknown", kind)
	}
	remaining := uint64(r.Len())
	switch enc {
	case encBoxed:
		// Every boxed cell takes at least its kind byte.
		if n64 > remaining {
			return nil, fmt.Errorf("boxed row count %d exceeds %d payload bytes", n64, remaining)
		}
	case encPlain, encDict:
		// The null bitmap alone needs (n+7)/8 bytes.
		if n64 > 8*remaining {
			return nil, fmt.Errorf("row count %d exceeds what %d payload bytes can hold", n64, remaining)
		}
	case encRLE:
		// Validated below by summing run lengths before allocating.
	default:
		return nil, fmt.Errorf("column encoding %d unknown", enc)
	}
	n := int(n64)
	c := &relation.ColVec{Kind: kind}
	switch enc {
	case encBoxed:
		if kind != value.KindNull {
			return nil, fmt.Errorf("boxed column with kind %s", kind)
		}
		c.Nulls = make([]bool, n)
		c.Boxed = make([]value.Value, n)
		for i := 0; i < n; i++ {
			c.Boxed[i] = r.Value()
			c.Nulls[i] = c.Boxed[i].IsNull()
		}
	case encRLE:
		if err := readRLE(r, c, n); err != nil {
			return nil, err
		}
	case encDict:
		if kind != value.KindString {
			return nil, fmt.Errorf("dict column with kind %s", kind)
		}
		c.Nulls = make([]bool, n)
		readBitmap(r, c.Nulls)
		if err := readDict(r, c, n); err != nil {
			return nil, err
		}
	case encPlain:
		c.Resize(n)
		readBitmap(r, c.Nulls)
		for i := 0; i < n; i++ {
			if !c.Nulls[i] {
				c.Set(i, r.Payload(c.Kind))
			}
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}

func nonNullCount(c *relation.ColVec) int {
	n := 0
	for _, isNull := range c.Nulls {
		if !isNull {
			n++
		}
	}
	return n
}

func distinctStrings(c *relation.ColVec) int {
	seen := make(map[string]struct{})
	for i, s := range c.Strs {
		if !c.Nulls[i] {
			seen[s] = struct{}{}
		}
	}
	return len(seen)
}

func runCount(c *relation.ColVec) int {
	n := c.Len()
	if n == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < n; i++ {
		if !sameCell(c, i-1, i) {
			runs++
		}
	}
	return runs
}

// sameCell reports whether rows i and j of the column hold
// bit-identical cells. Run-length encoding groups by this, not by SQL
// equality: FLOAT 0.0 and -0.0 compare equal but must round-trip to
// their own bit patterns.
func sameCell(c *relation.ColVec, i, j int) bool {
	if c.Nulls[i] != c.Nulls[j] {
		return false
	}
	if c.Nulls[i] {
		return true
	}
	if c.Boxed != nil {
		a, b := c.Boxed[i], c.Boxed[j]
		if a.Kind() != b.Kind() {
			return false
		}
		switch a.Kind() {
		case value.KindInt:
			return a.AsInt() == b.AsInt()
		case value.KindFloat:
			return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
		case value.KindString:
			return a.AsString() == b.AsString()
		case value.KindBool:
			return a.AsBool() == b.AsBool()
		}
		return false
	}
	switch c.Kind {
	case value.KindInt, value.KindBool:
		return c.Ints[i] == c.Ints[j]
	case value.KindFloat:
		return math.Float64bits(c.Floats[i]) == math.Float64bits(c.Floats[j])
	case value.KindString:
		return c.Strs[i] == c.Strs[j]
	}
	return false
}

func appendBitmap(dst []byte, nulls []bool) []byte {
	var cur byte
	for i, isNull := range nulls {
		if isNull {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(nulls)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

func appendRLE(dst []byte, c *relation.ColVec) []byte {
	n := c.Len()
	var runs [][2]int // start, length
	for i := 0; i < n; {
		j := i + 1
		for j < n && sameCell(c, i, j) {
			j++
		}
		runs = append(runs, [2]int{i, j - i})
		i = j
	}
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	for _, run := range runs {
		dst = binary.AppendUvarint(dst, uint64(run[1]))
		if c.Nulls[run[0]] {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = value.AppendPayload(dst, c.Value(run[0]))
		}
	}
	return dst
}

func readRLE(r *value.Reader, c *relation.ColVec, n int) error {
	// Pre-scan the run structure on a copy of the cursor without
	// allocating anything row-sized: the declared row count is only
	// trusted once the runs add up to it. A run covers 1..n-total rows;
	// an empty or overflowing one would index past the column below.
	scan := *r
	runs := scan.Count()
	total := uint64(0)
	for ri := 0; ri < runs; ri++ {
		length := scan.Uvarint()
		flag := scan.Byte()
		if scan.Err() != nil {
			return scan.Err()
		}
		if length == 0 || length > uint64(n)-total {
			return fmt.Errorf("rle run of %d rows at row %d of %d", length, total, n)
		}
		total += length
		if flag != 0 {
			scan.Payload(c.Kind)
		}
	}
	if scan.Err() != nil {
		return scan.Err()
	}
	if total != uint64(n) {
		return fmt.Errorf("rle runs cover %d of %d rows", total, n)
	}

	c.Resize(n)
	r.Count()
	at := 0
	for ri := 0; ri < runs; ri++ {
		length := int(r.Uvarint())
		if r.Byte() == 0 {
			for i := at; i < at+length; i++ {
				c.Nulls[i] = true
			}
		} else {
			v := r.Payload(c.Kind)
			for i := at; i < at+length; i++ {
				c.Set(i, v)
			}
		}
		at += length
	}
	return nil
}

func appendDict(dst []byte, c *relation.ColVec) []byte {
	index := make(map[string]uint64)
	var dict []string
	for i, s := range c.Strs {
		if c.Nulls[i] {
			continue
		}
		if _, ok := index[s]; !ok {
			index[s] = uint64(len(dict))
			dict = append(dict, s)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, s := range dict {
		dst = value.AppendString(dst, s)
	}
	for i, s := range c.Strs {
		if !c.Nulls[i] {
			dst = binary.AppendUvarint(dst, index[s])
		}
	}
	return dst
}

func readDict(r *value.Reader, c *relation.ColVec, n int) error {
	c.Strs = make([]string, n)
	dictLen := r.Count()
	dict := make([]string, 0, min(dictLen, 1024))
	for i := 0; i < dictLen && r.Err() == nil; i++ {
		dict = append(dict, r.Str())
	}
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < n; i++ {
		if c.Nulls[i] {
			continue
		}
		idx := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if idx >= uint64(len(dict)) {
			return fmt.Errorf("dict index %d out of range (%d entries)", idx, len(dict))
		}
		c.Strs[i] = dict[idx]
	}
	return nil
}

func readBitmap(r *value.Reader, nulls []bool) {
	nbytes := (len(nulls) + 7) / 8
	b := r.Take(nbytes)
	if r.Err() != nil {
		return
	}
	for i := range nulls {
		nulls[i] = b[i/8]&(1<<(i%8)) != 0
	}
}
