package workload

// Plan is Node.Latency's batched form: the call graph flattened to stages
// in Latency's visiting order (a node, then its children left to right —
// the order Latency calls its sojourn callback in, and so the order a
// per-draw walk draws in), so that Eval combines a whole matrix of stage
// values at once with Latency's bits for every draw. A component the
// graph visits twice is two stages. The engine's sample pass and the
// experiments' end-to-end p99 estimator both combine through a Plan.
//
// A Plan owns its column scratch, grown to the largest draw count Eval has
// seen; it is not safe for concurrent use.
type Plan struct {
	root  planNode
	comps []string
	depth int // plan nodes on the longest root-to-leaf path
	cols  []float64
}

// planNode mirrors Node with the component name resolved to a stage
// index.
type planNode struct {
	stage    int
	parallel bool
	children []planNode
}

// NewPlan flattens the call graph rooted at n.
func NewPlan(n *Node) *Plan {
	p := &Plan{}
	p.root, p.depth = p.add(n)
	return p
}

// add assigns n the next stage index, then its children theirs, and
// returns n's plan node and its depth.
func (p *Plan) add(n *Node) (planNode, int) {
	pn := planNode{stage: len(p.comps), parallel: n.Parallel}
	p.comps = append(p.comps, n.Comp)
	depth := 0
	for _, ch := range n.Children {
		c, d := p.add(ch)
		pn.children = append(pn.children, c)
		depth = max(depth, d)
	}
	return pn, depth + 1
}

// Stages returns each stage's component name, in stage order. The slice
// is the plan's own; callers must not modify it.
func (p *Plan) Stages() []string { return p.comps }

// Eval sets out[d] to Node.Latency with sojourn(comp) replaced by
// vals[d*k+s], where k is the plan's stage count and s the stage Latency
// would have called sojourn for, for every draw d < len(out): vals is
// draw-major and stage-minor, as sim.LognormalDraws fills it.
//
// It runs each plan node as a loop over the draws rather than walking the
// graph per draw: a node copies its own column, then a chain adds each
// child's column in child order, and a parallel node adds the strict >
// maximum over its children's columns, started at 0. Per draw these are
// Latency's IEEE operations in Latency's order — its right-nested chain
// association included, which a flat left-to-right sum over the same
// addends would round differently — so every out[d] has its bits, save a
// NaN's payload (which of two NaN addends a sum keeps is up to the
// operand order the compiler gives a commutative add).
func (p *Plan) Eval(out, vals []float64) {
	if need := 2 * (p.depth - 1) * len(out); len(p.cols) < need {
		p.cols = make([]float64, need)
	}
	p.root.eval(out, vals, len(p.comps), p.cols)
}

// eval is Eval below n; cols holds two len(out) columns per level below
// n, back to back.
func (n *planNode) eval(out, vals []float64, stages int, cols []float64) {
	for d := range out {
		out[d] = vals[d*stages+n.stage]
	}
	if len(n.children) == 0 {
		return
	}
	m := len(out)
	col, worst, rest := cols[:m], cols[m:2*m], cols[2*m:]
	if n.parallel {
		clear(worst)
		for i := range n.children {
			n.children[i].eval(col, vals, stages, rest)
			for d, l := range col {
				if l > worst[d] {
					worst[d] = l
				}
			}
		}
		for d, w := range worst {
			out[d] += w
		}
		return
	}
	for i := range n.children {
		n.children[i].eval(col, vals, stages, rest)
		for d, l := range col {
			out[d] += l
		}
	}
}
