package algebra

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
)

// Scope is the chain of blocks enclosing a subquery block, outermost
// first, in which its non-neighboring references resolve. SubqueryToGMDJ
// and Unnest both make such a reference legal as Theorems 3.3/3.4 do:
// an aliased copy of the owning block is joined into the referencing
// block's parent, the reference is requalified to the copy, and a glue
// conjunct ties the copy to its original one level up. A block is a bag
// and may hold NULLs, where the paper's base-values table is a set, so
// the glue is one equality on a row id, rid = pd.__rid: the copy is
// numbered, and so is the owner's source (Own).
type Scope struct {
	fresh  func(prefix string) string
	blocks []*scopeBlock
}

// scopeBlock is one enclosing block; rid names its row id once a copy
// of it has been pushed.
type scopeBlock struct {
	plan   Node
	schema *relation.Schema
	rid    string
}

// NewScope returns the empty scope of a top-level block; fresh mints
// the copies' aliases and the owners' row-id columns.
func NewScope(fresh func(prefix string) string) *Scope { return &Scope{fresh: fresh} }

// Enter returns the scope of the blocks nested in one over plan.
func (s *Scope) Enter(plan Node, schema *relation.Schema) *Scope {
	blocks := append(s.blocks[:len(s.blocks):len(s.blocks)], &scopeBlock{plan: plan, schema: schema})
	return &Scope{fresh: s.fresh, blocks: blocks}
}

// Own returns the plan the innermost block entered with, and its
// schema, numbered if a nested block pushed a copy of it. Call it once
// the nested blocks are done, before Push joins copies into the plan.
func (s *Scope) Own() (Node, *relation.Schema) {
	b := s.blocks[len(s.blocks)-1]
	if b.rid == "" {
		return b.plan, b.schema
	}
	return NewNumber(b.plan, b.rid), b.schema
}

// Push is the push-down into one block nested in a scope: Plan is the
// block's source with the copies joined in, and Glue belongs with the
// block's correlation one level up.
type Push struct {
	scope  *Scope
	Plan   Node
	Glue   []expr.Expr
	copies map[*scopeBlock]string
}

// Push starts the push-down into plan, the source of a block nested in
// s.
func (s *Scope) Push(plan Node) *Push {
	return &Push{scope: s, Plan: plan, copies: map[*scopeBlock]string{}}
}

// Resolve requalifies each column of *e that resolves in none of at,
// the schemas where *e is evaluated, to a copy of the innermost block
// of the scope that owns it; the first reference joins the copy in.
// A column no block owns is a free reference and an error.
func (p *Push) Resolve(e *expr.Expr, at ...*relation.Schema) error {
	if *e == nil {
		return nil
	}
	for _, c := range expr.Cols(*e) {
		if Resolves(c, at...) {
			continue
		}
		to, err := p.copyOf(c)
		if err != nil {
			return err
		}
		*e = expr.Rewrite(*e, func(x expr.Expr) expr.Expr {
			if d, ok := x.(*expr.Col); ok && d.Qualifier == c.Qualifier && d.Name == c.Name {
				return to
			}
			return x
		})
	}
	return nil
}

// copyOf returns c's column in the copy of the block that owns it.
func (p *Push) copyOf(c *expr.Col) (*expr.Col, error) {
	for i := len(p.scope.blocks) - 1; i >= 0; i-- {
		b := p.scope.blocks[i]
		at, err := b.schema.Find(c.Qualifier, c.Name)
		if err != nil {
			continue
		}
		alias, ok := p.copies[b]
		if !ok {
			if b.rid == "" {
				b.rid = p.scope.fresh("__rid")
				b.schema = NumberSchema(b.schema, b.rid)
			}
			alias = p.scope.fresh("pd")
			p.copies[b] = alias
			items := make([]ProjItem, b.schema.Len())
			for j, d := range b.schema.Columns {
				items[j] = ProjItem{E: expr.NewCol(d.Qualifier, d.Name), As: b.copyName(j)}
			}
			cp := NewAlias(NewProject(NewNumber(b.plan, b.rid), false, items...), alias)
			p.Plan = NewJoin(InnerJoin, cp, p.Plan, expr.TrueExpr())
			p.Glue = append(p.Glue, expr.Eq(expr.NewCol("", b.rid), expr.NewCol(alias, "__rid")))
		}
		return expr.NewCol(alias, b.copyName(at)), nil
	}
	return nil, fmt.Errorf("algebra: free reference %s resolves in no enclosing block", c)
}

// copyName names column i of b in a copy of b. The copy's row id is
// __rid, a name apart from the owner's, which the glue reads
// unqualified. Another column keeps its name unless that is taken, as
// in a block over two tables or one that holds an earlier copy; then it
// is qualified, since an alias alone would make the two ambiguous.
func (b *scopeBlock) copyName(i int) string {
	c := b.schema.Columns[i]
	if c.Qualifier == "" && c.Name == b.rid {
		return "__rid"
	}
	for j, d := range b.schema.Columns {
		if c.Name == "__rid" || j != i && d.Name == c.Name {
			return c.Qualifier + "." + c.Name
		}
	}
	return c.Name
}

// Resolves reports whether c names one column of one of at.
func Resolves(c *expr.Col, at ...*relation.Schema) bool {
	for _, s := range at {
		if _, err := s.Find(c.Qualifier, c.Name); err == nil {
			return true
		}
	}
	return false
}
