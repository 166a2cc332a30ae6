package algebra

import (
	"fmt"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func intSchema(q string, cols ...string) *relation.Schema {
	out := make([]relation.Column, len(cols))
	for i, c := range cols {
		out[i] = relation.Column{Qualifier: q, Name: c, Type: value.KindInt}
	}
	return relation.NewSchema(out...)
}

// TestScopePushGluesOnRowID: blocks a ⊃ b ⊃ c ⊃ d, where d reads a.
// The references are requalified to one copy of a joined into c's
// source, glued by one row-id equality; at b's level that glue's row id
// is free again and pushed the same way; a numbers its own source under
// the glue's name.
func TestScopePushGluesOnRowID(t *testing.T) {
	n := 0
	fresh := func(prefix string) string { n++; return fmt.Sprintf("%s%d", prefix, n) }
	a, b, c := NewScan("A", "a"), NewScan("B", "b"), NewScan("C", "c")
	aS, bS, cS, dS := intSchema("a", "x", "y"), intSchema("b", "k"), intSchema("c", "k"), intSchema("d", "k", "v")
	inA := NewScope(fresh).Enter(a, aS)
	inB := inA.Enter(b, bS)

	pushC := inB.Push(c)
	theta := expr.Expr(expr.NewAnd(expr.Eq(expr.C("d.k"), expr.C("c.k")), expr.Eq(expr.C("d.v"), expr.C("a.y"))))
	arg := expr.Expr(expr.NewArith(expr.OpAdd, expr.C("d.v"), expr.C("a.x")))
	for _, e := range []*expr.Expr{&theta, &arg} {
		if err := pushC.Resolve(e, cS, dS); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := theta.String()+" | "+arg.String(), "(d.k = c.k AND d.v = pd2.y) | (d.v + pd2.x)"; got != want {
		t.Errorf("requalified %s, want %s", got, want)
	}
	if got, want := pushC.Plan.String(), "((π[a.x -> x, a.y -> y, __rid1 -> __rid](ρ[__rid1](A->a)))->pd2 ⋈[true] C->c)"; got != want {
		t.Errorf("pushed plan %s, want %s", got, want)
	}
	if len(pushC.Glue) != 1 || pushC.Glue[0].String() != "__rid1 = pd2.__rid" {
		t.Fatalf("glue %v, want [__rid1 = pd2.__rid]", pushC.Glue)
	}

	pushB := inA.Push(b)
	glue := pushC.Glue[0]
	cDetail := NumberSchema(aS, "__rid").Rename("pd2").Concat(cS)
	if err := pushB.Resolve(&glue, bS, cDetail); err != nil {
		t.Fatal(err)
	}
	if glue.String() != "pd3.__rid = pd2.__rid" || len(pushB.Glue) != 1 || pushB.Glue[0].String() != "__rid1 = pd3.__rid" {
		t.Errorf("glue pushed again: %s, up %v", glue, pushB.Glue)
	}

	if plan, s := inA.Own(); plan.String() != "ρ[__rid1](A->a)" || s.Len() != 3 {
		t.Errorf("owner a: %s %s", plan, s)
	}
	if plan, _ := inB.Own(); plan != Node(b) {
		t.Errorf("b, of which no copy was taken, changed: %s", plan)
	}
	free := expr.Expr(expr.C("z.q"))
	if err := pushC.Resolve(&free, cS, dS); err == nil || !strings.Contains(err.Error(), "free reference") {
		t.Errorf("unowned column: err %v", err)
	}
}

// TestScopeCopyRenamesApart: a block that holds an earlier copy shares
// the names k and __rid with it; the copy of the block qualifies them
// so the alias keeps every column apart.
func TestScopeCopyRenamesApart(t *testing.T) {
	n := 0
	fresh := func(prefix string) string { n++; return fmt.Sprintf("%s%d", prefix, n) }
	bS := relation.NewSchema(append(intSchema("b", "k", "v").Columns, intSchema("pd9", "k", "__rid").Columns...)...)
	push := NewScope(fresh).Enter(NewScan("B", "b"), bS).Push(NewScan("C", "c"))
	ref := expr.Expr(expr.NewAnd(expr.Eq(expr.C("c.k"), expr.C("b.k")), expr.Eq(expr.C("c.k"), expr.C("b.v"))))
	if err := push.Resolve(&ref, intSchema("c", "k")); err != nil {
		t.Fatal(err)
	}
	if got, want := ref.String(), "(c.k = pd2.b.k AND c.k = pd2.v)"; got != want {
		t.Errorf("requalified %s, want %s", got, want)
	}
	want := "((π[b.k -> b.k, b.v -> v, pd9.k -> pd9.k, pd9.__rid -> pd9.__rid, __rid1 -> __rid](ρ[__rid1](B->b)))->pd2 ⋈[true] C->c)"
	if got := push.Plan.String(); got != want {
		t.Errorf("pushed plan %s, want %s", got, want)
	}
}
