// Package algebra defines the logical query algebra of the engine: the
// classical operators (scan, select, project, join, group-by, distinct)
// extended with
//
//   - the GMDJ operator MD(B, R, (l₁..lₘ), (θ₁..θₘ)) of Chatziantoniou,
//     Akinde, Johnson & Kim (ICDE 2001), as used by the paper, and
//   - the nested query algebra of §2.1 (after Bækgaard & Mark): selection
//     predicates that embed subquery expressions (EXISTS, NOT EXISTS,
//     scalar comparison, quantified SOME/ALL, IN / NOT IN).
//
// Plans are immutable trees. The rewriter (internal/rewrite) turns
// Restrict nodes whose predicates contain subqueries into GMDJ plans;
// internal/unnest turns them into join plans; the native executor
// evaluates them directly with tuple-iteration semantics.
package algebra

import (
	"fmt"
	"strings"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// SchemaResolver supplies base-table schemas during schema inference.
// storage.Catalog is adapted to this interface by the engine.
type SchemaResolver interface {
	TableSchema(name string) (*relation.Schema, error)
}

// Node is a logical plan operator.
type Node interface {
	fmt.Stringer
	// Schema infers the output schema of the operator.
	Schema(res SchemaResolver) (*relation.Schema, error)
	// Children returns the input plans.
	Children() []Node
}

// ---------------------------------------------------------------------------
// Leaf nodes

// Scan reads a named base table, optionally renaming it (Flow → F).
type Scan struct {
	Table string
	Alias string // defaults to Table when empty
}

// NewScan builds a scan; alias may be empty.
func NewScan(table, alias string) *Scan { return &Scan{Table: table, Alias: alias} }

// EffectiveAlias returns the alias the scan's columns carry.
func (s *Scan) EffectiveAlias() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Table
}

// Schema resolves the table schema and applies the rename.
func (s *Scan) Schema(res SchemaResolver) (*relation.Schema, error) {
	sch, err := res.TableSchema(s.Table)
	if err != nil {
		return nil, err
	}
	return sch.Rename(s.EffectiveAlias()), nil
}

// Children returns nil.
func (s *Scan) Children() []Node { return nil }

func (s *Scan) String() string {
	if s.Alias == "" || s.Alias == s.Table {
		return s.Table
	}
	return s.Table + "->" + s.Alias
}

// Raw wraps a literal relation as a leaf (tests, VALUES clauses, and
// rewriter-materialized intermediates).
type Raw struct {
	Name string
	Rel  *relation.Relation
}

// NewRaw builds a literal-relation leaf.
func NewRaw(name string, rel *relation.Relation) *Raw { return &Raw{Name: name, Rel: rel} }

// Schema returns the wrapped relation's schema.
func (r *Raw) Schema(SchemaResolver) (*relation.Schema, error) { return r.Rel.Schema, nil }

// Children returns nil.
func (r *Raw) Children() []Node { return nil }

func (r *Raw) String() string { return "raw:" + r.Name }

// ---------------------------------------------------------------------------
// Classical operators

// Restrict is selection σ[W](Input) where W is a predicate tree that
// may contain subquery predicates (see Pred). Plain selections use an
// Atom predicate.
type Restrict struct {
	Input Node
	Where Pred
}

// NewRestrict builds a selection.
func NewRestrict(input Node, where Pred) *Restrict { return &Restrict{Input: input, Where: where} }

// Filter builds a plain (subquery-free) selection from an expression.
func Filter(input Node, e expr.Expr) *Restrict {
	return &Restrict{Input: input, Where: &Atom{E: e}}
}

// Schema is the input schema.
func (r *Restrict) Schema(res SchemaResolver) (*relation.Schema, error) {
	return r.Input.Schema(res)
}

// Children returns the input plus any subquery sources inside Where.
func (r *Restrict) Children() []Node {
	out := []Node{r.Input}
	WalkPred(r.Where, func(p Pred) bool {
		if sp, ok := p.(*SubPred); ok {
			out = append(out, sp.Sub.Source)
		}
		return true
	})
	return out
}

func (r *Restrict) String() string {
	return fmt.Sprintf("σ[%s](%s)", r.Where, r.Input)
}

// ProjItem is one output column of a projection: an expression with an
// optional alias.
type ProjItem struct {
	E  expr.Expr
	As string
}

func (p ProjItem) String() string {
	if p.As == "" {
		return p.E.String()
	}
	return fmt.Sprintf("%s -> %s", p.E, p.As)
}

// Project is π[items](Input). Distinct marks duplicate elimination
// (the paper's π[SourceIP]Flow is a distinct projection).
type Project struct {
	Input    Node
	Items    []ProjItem
	Distinct bool
}

// NewProject builds a projection.
func NewProject(input Node, distinct bool, items ...ProjItem) *Project {
	return &Project{Input: input, Items: items, Distinct: distinct}
}

// ProjectCols projects named columns ("F.A", "B") without renaming.
func ProjectCols(input Node, distinct bool, cols ...string) *Project {
	items := make([]ProjItem, len(cols))
	for i, c := range cols {
		items[i] = ProjItem{E: expr.C(c)}
	}
	return NewProject(input, distinct, items...)
}

// SchemaItems lists s's columns as projection items: π over them
// restores a plan to schema s, dropping the columns a rewrite added.
func SchemaItems(s *relation.Schema) []ProjItem {
	items := make([]ProjItem, s.Len())
	for i, c := range s.Columns {
		items[i] = ProjItem{E: expr.NewCol(c.Qualifier, c.Name)}
	}
	return items
}

// Schema is ProjectSchema over the input's schema.
func (p *Project) Schema(res SchemaResolver) (*relation.Schema, error) {
	in, err := p.Input.Schema(res)
	if err != nil {
		return nil, err
	}
	return ProjectSchema(in, p.Items)
}

// ProjectSchema derives a projection's output columns from its input
// schema, one per item: column references keep their identity unless
// aliased; computed items require an alias. The executor applies it to
// the materialized input, so plan and result agree by construction.
func ProjectSchema(in *relation.Schema, items []ProjItem) (*relation.Schema, error) {
	cols := make([]relation.Column, len(items))
	for i, it := range items {
		if c, ok := it.E.(*expr.Col); ok {
			pos, err := in.Find(c.Qualifier, c.Name)
			if err != nil {
				return nil, err
			}
			col := in.Columns[pos]
			if it.As != "" {
				col = relation.Column{Name: it.As, Type: col.Type}
			}
			cols[i] = col
			continue
		}
		if it.As == "" {
			return nil, fmt.Errorf("algebra: computed projection %s requires an alias", it.E)
		}
		cols[i] = relation.Column{Name: it.As, Type: value.KindNull}
	}
	return relation.NewSchema(cols...), nil
}

// Children returns the input.
func (p *Project) Children() []Node { return []Node{p.Input} }

func (p *Project) String() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.String()
	}
	d := ""
	if p.Distinct {
		d = "δ"
	}
	return fmt.Sprintf("π%s[%s](%s)", d, strings.Join(parts, ", "), p.Input)
}

// Distinct eliminates duplicate rows.
type Distinct struct {
	Input Node
}

// NewDistinct builds a duplicate-elimination node.
func NewDistinct(input Node) *Distinct { return &Distinct{Input: input} }

// Schema is the input schema.
func (d *Distinct) Schema(res SchemaResolver) (*relation.Schema, error) {
	return d.Input.Schema(res)
}

// Children returns the input.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

func (d *Distinct) String() string { return fmt.Sprintf("δ(%s)", d.Input) }

// JoinKind distinguishes the join flavors the unnesting baseline needs.
type JoinKind uint8

const (
	// InnerJoin keeps matching pairs.
	InnerJoin JoinKind = iota
	// LeftOuterJoin keeps all left rows, padding with NULLs.
	LeftOuterJoin
	// SemiJoin keeps left rows with at least one match.
	SemiJoin
	// AntiJoin keeps left rows with no match.
	AntiJoin
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "⋈"
	case LeftOuterJoin:
		return "⟕"
	case SemiJoin:
		return "⋉"
	case AntiJoin:
		return "▷"
	default:
		return "?"
	}
}

// Join combines two inputs on a predicate.
type Join struct {
	Kind        JoinKind
	Left, Right Node
	On          expr.Expr
}

// NewJoin builds a join node.
func NewJoin(kind JoinKind, left, right Node, on expr.Expr) *Join {
	return &Join{Kind: kind, Left: left, Right: right, On: on}
}

// Schema is the concatenation for inner/outer joins and the left
// schema for semi/anti joins.
func (j *Join) Schema(res SchemaResolver) (*relation.Schema, error) {
	l, err := j.Left.Schema(res)
	if err != nil {
		return nil, err
	}
	if j.Kind == SemiJoin || j.Kind == AntiJoin {
		return l, nil
	}
	r, err := j.Right.Schema(res)
	if err != nil {
		return nil, err
	}
	return l.Concat(r), nil
}

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

func (j *Join) String() string {
	return fmt.Sprintf("(%s %s[%s] %s)", j.Left, j.Kind, j.On, j.Right)
}

// GroupBy is grouped aggregation: one output row per distinct key
// combination, keys first then aggregate results. With no keys it
// produces exactly one row (global aggregation).
type GroupBy struct {
	Input Node
	Keys  []*expr.Col
	Aggs  []agg.Spec
}

// NewGroupBy builds a grouped aggregation node.
func NewGroupBy(input Node, keys []*expr.Col, aggs []agg.Spec) *GroupBy {
	return &GroupBy{Input: input, Keys: keys, Aggs: aggs}
}

// Schema is GroupBySchema over the input's schema.
func (g *GroupBy) Schema(res SchemaResolver) (*relation.Schema, error) {
	in, err := g.Input.Schema(res)
	if err != nil {
		return nil, err
	}
	return GroupBySchema(in, g.Keys, g.Aggs)
}

// GroupBySchema derives a grouped aggregation's output columns from its
// input schema: the key columns, then one column per aggregate.
func GroupBySchema(in *relation.Schema, keys []*expr.Col, aggs []agg.Spec) (*relation.Schema, error) {
	cols := make([]relation.Column, 0, len(keys)+len(aggs))
	for _, k := range keys {
		pos, err := in.Find(k.Qualifier, k.Name)
		if err != nil {
			return nil, err
		}
		cols = append(cols, in.Columns[pos])
	}
	cols = append(cols, agg.OutputSchema(aggs, "")...)
	return relation.NewSchema(cols...), nil
}

// Children returns the input.
func (g *GroupBy) Children() []Node { return []Node{g.Input} }

func (g *GroupBy) String() string {
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = k.String()
	}
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.String()
	}
	return fmt.Sprintf("γ[%s; %s](%s)", strings.Join(keys, ","), strings.Join(aggs, ","), g.Input)
}
