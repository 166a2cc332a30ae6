package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the one wire form of a cell, which the durable tier
// (segments, manifests) stores: AppendBinary writes it, Reader decodes
// it, and Tuple.Key reuses it through AppendKey. The scratch tier holds
// no cells: a spill partition's positions and key hashes decode through
// Reader alone. Stored cells keep their kind and every payload bit
// (-0.0 stays -0.0, FLOAT 1.0 stays a FLOAT); only Hash and AppendKey
// canonicalise.

// AppendBinary appends the kind-tagged encoding of v: the kind byte,
// then AppendPayload. Committed segments and manifests hold this form,
// so it cannot change without a format-version bump.
func AppendBinary(dst []byte, v Value) []byte {
	return AppendPayload(append(dst, byte(v.kind)), v)
}

// AppendPayload appends v without its kind (a typed segment column
// states the kind once, in its header): INT as a zig-zag varint, FLOAT
// as its 8 IEEE-754 bytes little-endian, STRING as uvarint length +
// bytes, BOOL as one byte, NULL as nothing.
func AppendPayload(dst []byte, v Value) []byte {
	switch v.kind {
	case KindInt:
		return binary.AppendVarint(dst, v.i)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case KindString:
		return AppendString(dst, v.s)
	case KindBool:
		return append(dst, byte(v.i))
	}
	return dst
}

// AppendString appends s as uvarint length + bytes (names, qualifiers
// and STRING payloads alike).
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendKey appends the grouping-key form of v: the encoding of v
// canonicalised so that two cells encode alike exactly when Equal holds
// — a FLOAT holding an integer becomes that INT (so 1.0 ≡ 1 and
// -0.0 ≡ 0.0 ≡ 0), and every NaN writes Hash's one payload. The
// encoding is self-delimiting, so concatenated cells cannot run into
// each other. Equal is not transitive between INT and FLOAT beyond
// ±2^53 (several INTs widen to one float64), so the equivalence is
// exact only for integers within that range.
func AppendKey(dst []byte, v Value) []byte {
	if f := v.float(); v.kind == KindFloat && f != f {
		v = Float(math.NaN())
	} else if v.kind == KindFloat && f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		v = Int(int64(f))
	}
	return AppendBinary(dst, v)
}

// Reader is a defensive cursor over an untrusted payload — bytes that
// survived a disk behind only a 64-bit checksum, or a fuzzer. Every
// getter validates bounds and sets a sticky error instead of
// panicking (later getters then return zero values, so callers check
// Err once per structure), and counts are capped by the bytes that
// actually remain so a forged length cannot force a huge allocation.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Finish returns Err, or an error when a well-formed payload is
// followed by bytes nothing accounts for.
func (r *Reader) Finish() error {
	if r.err == nil && r.Len() != 0 {
		r.Failf("%d trailing bytes", r.Len())
	}
	return r.err
}

// Failf records a structural violation found by the caller (an unknown
// tag, counts that do not add up) unless an earlier error is pending.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint that counts in-payload items; it can never
// meaningfully exceed the bytes remaining, which caps allocations.
func (r *Reader) Count() int {
	u := r.Uvarint()
	if u > uint64(r.Len())+1 {
		r.Failf("count %d exceeds %d remaining payload bytes", u, r.Len())
		return 0
	}
	return int(u)
}

// Take returns the next n bytes, aliasing the payload.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Failf("unexpected end of payload at offset %d (want %d bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Take(r.Count())) }

// Float reads 8 little-endian IEEE-754 bytes.
func (r *Reader) Float() float64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Value reads one cell written by AppendBinary.
func (r *Reader) Value() Value { return r.Payload(Kind(r.Byte())) }

// Payload reads one cell of the given kind written by AppendPayload;
// the result has that kind even after an error.
func (r *Reader) Payload(kind Kind) Value {
	switch kind {
	case KindNull:
		return Null
	case KindInt:
		return Int(r.Varint())
	case KindFloat:
		return Float(r.Float())
	case KindString:
		return Str(r.Str())
	case KindBool:
		return Bool(r.Byte() != 0)
	default:
		r.Failf("unknown value kind %d", kind)
		return Null
	}
}
