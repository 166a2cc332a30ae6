package spill

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// This file is the spill wire format: relations, tuples and GMDJ base
// partitions in the engine's one cell encoding (value.AppendBinary,
// Schema.AppendBinary — the same bytes the durable tier stores), plus a
// codec registry so heterogeneous cached values (result-cache entries)
// can round-trip through the store without the store knowing their
// types.
//
// Every decoder reads through value.Reader, so any structural
// violation is an error, never a panic or an oversized allocation —
// the bytes may have survived a disk and the checksum is only 64 bits
// (FuzzSpillDecode leans on this).

// AppendTuple encodes one tuple (width uvarint + cells).
func AppendTuple(buf []byte, t relation.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = value.AppendBinary(buf, v)
	}
	return buf
}

// ReadTuple decodes one tuple at r; malformed input is recorded on r.
func ReadTuple(r *value.Reader) relation.Tuple {
	t := make(relation.Tuple, r.Count())
	for i := range t {
		t[i] = r.Value()
	}
	return t
}

// EncodeRelation encodes schema and rows.
func EncodeRelation(rel *relation.Relation) []byte {
	buf := rel.Schema.AppendBinary(nil)
	buf = binary.AppendUvarint(buf, uint64(len(rel.Rows)))
	for _, t := range rel.Rows {
		buf = AppendTuple(buf, t)
	}
	return buf
}

// DecodeRelation is the inverse of EncodeRelation.
func DecodeRelation(data []byte) (*relation.Relation, error) {
	r := value.NewReader(data)
	rel := relation.New(relation.ReadSchema(r))
	nrows := r.Count()
	rel.Rows = make([]relation.Tuple, 0, nrows)
	for i := 0; i < nrows && r.Err() == nil; i++ {
		rel.Rows = append(rel.Rows, ReadTuple(r))
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("spill codec: relation: %w", err)
	}
	return rel, nil
}

// EncodePartition encodes a spilled GMDJ base partition: rows paired
// with their positions in the original base relation, so the evaluator
// can reassemble results in base order after re-probing.
func EncodePartition(idx []int32, rows []relation.Tuple) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(rows)))
	for i, t := range rows {
		buf = binary.AppendUvarint(buf, uint64(idx[i]))
		buf = AppendTuple(buf, t)
	}
	return buf
}

// DecodePartition is the inverse of EncodePartition.
func DecodePartition(data []byte) ([]int32, []relation.Tuple, error) {
	r := value.NewReader(data)
	nrows := r.Count()
	idx := make([]int32, 0, nrows)
	rows := make([]relation.Tuple, 0, nrows)
	for i := 0; i < nrows && r.Err() == nil; i++ {
		idx = append(idx, int32(r.Uvarint()))
		rows = append(rows, ReadTuple(r))
	}
	if err := r.Finish(); err != nil {
		return nil, nil, fmt.Errorf("spill codec: partition: %w", err)
	}
	return idx, rows, nil
}

// Codec teaches the store how to round-trip one concrete cached-value
// type. Encode returns ok=false when v is not its type.
type Codec struct {
	Name   string
	Encode func(v any) ([]byte, bool)
	Decode func(data []byte) (any, error)
}

var (
	codecMu   sync.RWMutex
	codecs    []Codec
	codecByNm = map[string]int{}
)

// RegisterCodec adds a codec (package init time; last registration of
// a name wins).
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if i, ok := codecByNm[c.Name]; ok {
		codecs[i] = c
		return
	}
	codecByNm[c.Name] = len(codecs)
	codecs = append(codecs, c)
}

// EncodeAny finds a codec handling v and encodes it. ok is false when
// no registered codec handles v — the value is then not spillable and
// must stay in memory or be dropped.
func EncodeAny(v any) (name string, data []byte, ok bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	for _, c := range codecs {
		if data, ok := c.Encode(v); ok {
			return c.Name, data, true
		}
	}
	return "", nil, false
}

// DecodeAny decodes data with the named codec.
func DecodeAny(name string, data []byte) (any, error) {
	codecMu.RLock()
	i, ok := codecByNm[name]
	c := Codec{}
	if ok {
		c = codecs[i]
	}
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("spill codec: unknown codec %q", name)
	}
	return c.Decode(data)
}

func init() {
	RegisterCodec(Codec{
		Name: "relation",
		Encode: func(v any) ([]byte, bool) {
			rel, ok := v.(*relation.Relation)
			if !ok {
				return nil, false
			}
			return EncodeRelation(rel), true
		},
		Decode: func(data []byte) (any, error) {
			return DecodeRelation(data)
		},
	})
}
