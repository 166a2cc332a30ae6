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

// encodeColumn serializes one column, choosing the encoding. A STRING
// column is dictionary-encoded when its strings repeat twice on average:
// a coded column with its own dictionary and codes (dictOf).
func encodeColumn(c *relation.ColVec) []byte {
	n := c.Len()
	out := []byte{0, byte(c.Kind)}
	out = binary.AppendUvarint(out, uint64(n))
	dict, codes := dictOf(c)
	switch {
	case c.Boxed != nil:
		out[0] = encBoxed
		for _, v := range c.Boxed {
			out = value.AppendBinary(out, v)
		}
	case runCount(c)*2 <= n:
		out[0] = encRLE
		out = appendRLE(out, c)
	case dict != nil && len(dict)*2 <= nonNullCount(c):
		out[0] = encDict
		out = appendBitmap(out, c.Nulls)
		out = binary.AppendUvarint(out, uint64(len(dict)))
		for _, s := range dict {
			out = value.AppendString(out, s)
		}
		for i, code := range codes {
			if !c.Nulls[i] {
				out = binary.AppendUvarint(out, uint64(code))
			}
		}
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

// dictOf returns a STRING column's strings as a dictionary in order of
// first occurrence, and each row's code. A coded column has them already:
// Append numbers in that order, so its rows use a prefix of its
// dictionary (a copy of a column that grew since leaves the rest unused).
func dictOf(c *relation.ColVec) (dict []string, codes []uint32) {
	if c.Kind != value.KindString || c.Boxed != nil {
		return nil, nil
	} else if c.Dict != nil {
		used := 0
		for i, code := range c.Codes {
			if !c.Nulls[i] {
				used = max(used, int(code)+1)
			}
		}
		return c.Dict[:used], c.Codes
	}
	index := make(map[string]uint32)
	dict, codes = []string{}, make([]uint32, c.Len())
	for i, s := range c.Strs {
		if c.Nulls[i] {
			continue
		}
		code, ok := index[s]
		if !ok {
			code = uint32(len(dict))
			index[s], dict = code, append(dict, s)
		}
		codes[i] = code
	}
	return dict, codes
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
		return c.Value(i).AsString() == c.Value(j).AsString()
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

// readDict reads a dictionary and codes into c, coded: the dictionary
// as written, so the column encodes back to the same bytes.
func readDict(r *value.Reader, c *relation.ColVec, n int) error {
	dictLen := r.Count()
	c.Dict = make([]string, 0, min(dictLen, 1024))
	for i := 0; i < dictLen && r.Err() == nil; i++ {
		s := r.Str()
		c.Dict, c.DictHash = append(c.Dict, s), append(c.DictHash, value.FoldHash(value.HashInit, value.Str(s)))
	}
	if r.Err() != nil {
		return r.Err()
	}
	c.Codes = make([]uint32, n)
	for i := 0; i < n; i++ {
		if c.Nulls[i] {
			continue
		}
		idx := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if idx >= uint64(len(c.Dict)) {
			return fmt.Errorf("dict index %d out of range (%d entries)", idx, len(c.Dict))
		}
		c.Codes[i] = uint32(idx)
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
