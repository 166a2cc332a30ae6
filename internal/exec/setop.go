package exec

import (
	"fmt"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/relation"
)

// evalSetOp implements SQL set-operation semantics: UNION, EXCEPT, and
// INTERSECT are duplicate-eliminating; UNION ALL concatenates bags.
func (e *Executor) evalSetOp(s *algebra.SetOp, ev *env) (*relation.Relation, error) {
	l, err := e.eval(s.Left, ev)
	if err != nil {
		return nil, err
	}
	r, err := e.eval(s.Right, ev)
	if err != nil {
		return nil, err
	}
	if l.Schema.Len() != r.Schema.Len() {
		return nil, fmt.Errorf("exec: %s operands have %d and %d columns", s.Kind, l.Schema.Len(), r.Schema.Len())
	}
	if err := ev.q.fire(s, "exec.setop"); err != nil {
		return nil, err
	}
	out := relation.New(l.Schema)
	emit := func(row relation.Tuple) error {
		if err := ev.q.account(row); err != nil {
			return err
		}
		out.Append(row)
		return nil
	}
	// Set operations preserve left-then-right arrival order — serial
	// folds over each side.
	each := func(rel *relation.Relation, fn func(row relation.Tuple) error) error {
		for _, row := range rel.Rows {
			if err := ev.q.tick(); err != nil {
				return err
			}
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	}
	finish := func() (*relation.Relation, error) {
		ev.q.recordWorkers(1)
		return out, nil
	}
	switch s.Kind {
	case algebra.UnionAll:
		for _, rel := range []*relation.Relation{l, r} {
			if err := each(rel, emit); err != nil {
				return nil, err
			}
		}
		return finish()
	case algebra.Union:
		seen := map[string]bool{}
		for _, rel := range []*relation.Relation{l, r} {
			err := each(rel, func(row relation.Tuple) error {
				k := row.Key()
				if seen[k] {
					return nil
				}
				seen[k] = true
				return emit(row)
			})
			if err != nil {
				return nil, err
			}
		}
		return finish()
	case algebra.Except, algebra.Intersect:
		keep := s.Kind == algebra.Intersect
		right := map[string]bool{}
		err := each(r, func(row relation.Tuple) error {
			right[row.Key()] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		emitted := map[string]bool{}
		err = each(l, func(row relation.Tuple) error {
			k := row.Key()
			if right[k] != keep || emitted[k] {
				return nil
			}
			emitted[k] = true
			return emit(row)
		})
		if err != nil {
			return nil, err
		}
		return finish()
	default:
		return nil, fmt.Errorf("exec: unknown set operation %v", s.Kind)
	}
}
