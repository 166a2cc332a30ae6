package engine

import (
	"math"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/obs"
)

// Estimate drift: after a query runs, the cost model's predicted
// cardinalities are attached to the collected stats tree, so EXPLAIN
// ANALYZE renders each operator as "act=N est=M" (with a misest=Kx
// flag past obs.MisestimateFactor). This is the feedback loop the
// Auto strategy needs to be trusted — when the model that picked the
// plan is off by 10×, the plan it picked is suspect, and the drift
// column says so on the very line that misbehaved.

// annotateEstimates walks the physical plan and the collected stats
// tree in lockstep, attaching the model's row estimate to every
// operator the two trees share. Safe on a nil root (no collection).
func (e *Engine) annotateEstimates(p algebra.Node, root *obs.Op) {
	if p == nil || root == nil {
		return
	}
	annotateOp(e.model(), p, root)
}

// annotateOp matches one plan node to one stats node by label
// (algebra.Describe — the same labels both EXPLAIN renderings use)
// and recurses. Plan children are matched to the first unused stats
// child with the same label: the stats tree can carry extra children
// with no plan counterpart (a native subquery's inner block evaluated
// under its enclosing Select), which simply keep their plain rows=
// rendering.
func annotateOp(m *costModel, n algebra.Node, op *obs.Op) {
	label, _ := algebra.Describe(n)
	if op.Label != label {
		return
	}
	op.SetEst(int64(math.Round(m.node(n).rows)))
	used := make([]bool, len(op.Children))
	for _, ch := range n.Children() {
		chLabel, _ := algebra.Describe(ch)
		for i, oc := range op.Children {
			if used[i] || oc.Label != chLabel {
				continue
			}
			used[i] = true
			annotateOp(m, ch, oc)
			// A selection fused into a GMDJ's detail scan reports the rows
			// it handed on — its predicate runs inside the GMDJ — so there
			// is no actual to set the estimate against.
			if g, ok := n.(*algebra.GMDJ); ok && ch == g.Detail && oc.Get("fused") != 0 {
				oc.EstRows = nil
			}
			break
		}
	}
}
