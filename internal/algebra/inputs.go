package algebra

// MapInputs rebuilds n over fn of each of its input plans, in
// Children order, keeping everything else about the node. Leaves and
// node kinds it does not know are returned as they are. Subquery
// sources inside a Restrict's predicate are not inputs: a pass that
// wants them walks the predicate itself.
func MapInputs(n Node, fn func(Node) (Node, error)) (Node, error) {
	var err error
	in := func(c Node) Node {
		if err != nil {
			return c
		}
		var out Node
		if out, err = fn(c); err != nil {
			return c
		}
		return out
	}
	var out Node
	switch t := n.(type) {
	case *Alias:
		out = &Alias{Input: in(t.Input), Name: t.Name}
	case *Number:
		out = &Number{Input: in(t.Input), As: t.As}
	case *Distinct:
		out = &Distinct{Input: in(t.Input)}
	case *Restrict:
		out = &Restrict{Input: in(t.Input), Where: t.Where}
	case *Project:
		out = &Project{Input: in(t.Input), Items: t.Items, Distinct: t.Distinct}
	case *Join:
		out = &Join{Kind: t.Kind, Left: in(t.Left), Right: in(t.Right), On: t.On}
	case *GroupBy:
		out = &GroupBy{Input: in(t.Input), Keys: t.Keys, Aggs: t.Aggs}
	case *GMDJ:
		out = &GMDJ{Base: in(t.Base), Detail: in(t.Detail), Conds: t.Conds, Completion: t.Completion}
	case *Sort:
		out = &Sort{Input: in(t.Input), Keys: t.Keys, Limit: t.Limit}
	case *SetOp:
		out = &SetOp{Kind: t.Kind, Left: in(t.Left), Right: in(t.Right)}
	default:
		return n, nil
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapSubqueries rebuilds n, inputs first, replacing each selection
// σ[W](B) by fn(B, W) when W, its negations pushed down
// (PushDownNegations), holds a subquery predicate; SubqueryToGMDJ and
// Unnest are its two fns. Other selections keep the normalized W.
func MapSubqueries(n Node, fn func(input Node, w Pred) (Node, error)) (Node, error) {
	out, err := MapInputs(n, func(c Node) (Node, error) { return MapSubqueries(c, fn) })
	r, ok := out.(*Restrict)
	if err != nil || !ok {
		return out, err
	}
	w := PushDownNegations(r.Where)
	if !HasSubquery(w) {
		return NewRestrict(r.Input, w), nil
	}
	return fn(r.Input, w)
}
