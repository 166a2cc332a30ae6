package algebra

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// Number extends its input with an ordinal INT column (0-based row
// id). The join-unnesting baseline uses it to key grouped aggregation
// back to individual outer tuples — the classical fix for duplicate
// outer rows in Kim-style aggregate unnesting.
type Number struct {
	Input Node
	As    string
}

// NewNumber appends a row-id column named as.
func NewNumber(input Node, as string) *Number { return &Number{Input: input, As: as} }

// Schema is NumberSchema over the input's schema.
func (n *Number) Schema(res SchemaResolver) (*relation.Schema, error) {
	in, err := n.Input.Schema(res)
	if err != nil {
		return nil, err
	}
	return NumberSchema(in, n.As), nil
}

// NumberSchema is the input schema plus the ordinal INT column as.
func NumberSchema(in *relation.Schema, as string) *relation.Schema {
	cols := append(append([]relation.Column{}, in.Columns...),
		relation.Column{Name: as, Type: value.KindInt})
	return relation.NewSchema(cols...)
}

// Children returns the input.
func (n *Number) Children() []Node { return []Node{n.Input} }

func (n *Number) String() string { return fmt.Sprintf("ρ[%s](%s)", n.As, n.Input) }
