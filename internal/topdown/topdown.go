// Package topdown implements the polynomial-time top-down XPath
// evaluator of Section 7: the vectorized semantics functions S↓ (for
// location paths, Figure 7) and E↓ (for arbitrary expressions,
// Definition 7.1). A location path is evaluated once for a whole vector
// of context-node sets, and a predicate once for a whole list of
// deduplicated contexts, so no (subexpression, context) pair is ever
// evaluated twice. This realizes the context-value-table principle while
// computing far fewer useless intermediate results than the bottom-up
// Algorithm 6.3, and carries the improved bounds of Remark 6.7:
// O(|D|⁴·|Q|²) time and O(|D|³·|Q|²) space.
//
// This engine is the reproduction of the paper's own "XMLTaskforce"
// prototype benchmarked against IE6 in Table VII.
package topdown

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator evaluates XPath queries over one document. It holds nothing
// else: any number of goroutines may share one.
type Evaluator struct {
	doc *xmltree.Document
}

// New returns a top-down evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// Evaluate computes the value of e for a single context. Internally the
// whole evaluation is vectorized; the top-level vector has length one.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: the vectorized
// recursion and its per-context-node loops check ctx at throttled
// checkpoints and abandon the evaluation with ctx's error once it is
// done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return evalutil.Evaluate(ctx, ev.doc, func(ar *xmltree.Arena, cancel *evalutil.Canceller) (semantics.Value, error) {
		st := newRun(ar, cancel, ev.doc)
		vs, err := st.evalVector(e, append(st.ctxs.Make(1), c))
		if err != nil {
			return semantics.Value{}, err
		}
		return vs[0], nil
	})
}

// run is one evaluation: the document, the arena its node sets come
// from, the throttled cancellation checkpoint consulted on every
// vectorized step, and the vectors of E↓ and S↓ in slabs the arena
// keeps. indexes are the context tables of the predicates being
// evaluated, one per nesting level.
type run struct {
	doc    *xmltree.Document
	ar     *xmltree.Arena
	cancel *evalutil.Canceller

	vals    xmltree.Slab[semantics.Value]
	ctxs    xmltree.Slab[semantics.Context]
	sets    xmltree.Slab[xmltree.NodeSet]
	argv    xmltree.Slab[[]semantics.Value]
	indexes []map[semantics.Context]int
	nested  int // indexes in use
}

// newRun begins an evaluation in the arena ar.
func newRun(ar *xmltree.Arena, cancel *evalutil.Canceller, d *xmltree.Document) *run {
	ev := xmltree.Keep[run](ar)
	ev.doc, ev.ar, ev.cancel, ev.nested = d, ar, cancel, 0
	ev.vals.Reset()
	ev.ctxs.Reset()
	ev.sets.Reset()
	ev.argv.Reset()
	return ev
}

// evalVector is E↓: it maps a list of contexts to a list of values, one
// per context (Definition 7.1).
func (ev *run) evalVector(e xpath.Expr, ctxs []semantics.Context) ([]semantics.Value, error) {
	if err := ev.cancel.Check(); err != nil {
		return nil, err
	}
	out := ev.vals.Zeros(len(ctxs))
	var sets []xmltree.NodeSet
	var err error
	switch x := e.(type) {
	case *xpath.Path:
		// E↓[[π]](c1,…,cl) = S↓[[π]]({x1},…,{xl}).
		inputs := ev.sets.Zeros(len(ctxs))
		for i, c := range ctxs {
			inputs[i] = append(ev.ar.Nodes(1), c.Node)
		}
		sets, err = ev.evalPathVector(x, ctxs, inputs)
	case *xpath.FilterExpr:
		sets, err = ev.evalFilterVector(x, ctxs)
	default:
		return ev.evalOperatorVector(e, ctxs, out)
	}
	if err != nil {
		return nil, err
	}
	for i, s := range sets {
		out[i] = semantics.NodeSet(s)
	}
	return out, nil
}

// evalOperatorVector is E↓ of every expression but a path or filter
// expression, into out: the vectorized operator Op⟨⟩ of Section 7 — each
// operand evaluated once over the whole vector, then F[[e]] of the
// operands' values per context (semantics.Eval).
func (ev *run) evalOperatorVector(e xpath.Expr, ctxs []semantics.Context, out []semantics.Value) ([]semantics.Value, error) {
	var few [4]xpath.Expr
	ops := xpath.Operands(e, few[:0])
	argv := ev.argv.Zeros(len(ops))
	for i, o := range ops {
		vs, err := ev.evalVector(o, ctxs)
		if err != nil {
			return nil, err
		}
		argv[i] = vs
	}
	args := ev.vals.Zeros(len(ops))
	for i, c := range ctxs {
		if err := ev.cancel.Check(); err != nil {
			return nil, err
		}
		for j := range argv {
			args[j] = argv[j][i]
		}
		v, err := semantics.Eval(ev.doc, ev.ar, e, c, args)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalPathVector is S↓ (Figure 7): given one input node set per vector
// slot, it returns the nodes reachable via the path, per slot. ctxs is
// carried along only for a filter-expression head, whose value may
// depend on the original contexts. The sets of the slots are read, never
// written, so slots may share one.
func (ev *run) evalPathVector(p *xpath.Path, ctxs []semantics.Context, inputs []xmltree.NodeSet) ([]xmltree.NodeSet, error) {
	cur := inputs
	switch {
	case p.Filter != nil:
		vs, err := ev.evalVector(p.Filter, ctxs)
		if err != nil {
			return nil, err
		}
		cur = ev.sets.Zeros(len(vs))
		for i, v := range vs {
			if v.Kind != xpath.TypeNodeSet {
				return nil, fmt.Errorf("topdown: path head is not a node set")
			}
			cur[i] = v.Set
		}
	case p.Absolute:
		// S↓[[/π]](X1,…,Xk) = S↓[[π]]({root},…,{root}).
		root := append(ev.ar.Nodes(1), ev.doc.RootID())
		cur = ev.sets.Zeros(len(inputs))
		for i := range cur {
			cur[i] = root
		}
	}
	for _, step := range p.Steps {
		next, err := ev.evalStepVector(step, cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// evalFilterVector evaluates a filter expression (primary + predicates)
// for each context, batching predicate evaluation across the vector.
func (ev *run) evalFilterVector(f *xpath.FilterExpr, ctxs []semantics.Context) ([]xmltree.NodeSet, error) {
	vs, err := ev.evalVector(f.Primary, ctxs)
	if err != nil {
		return nil, err
	}
	sets := ev.sets.Zeros(len(vs))
	for i, v := range vs {
		if v.Kind != xpath.TypeNodeSet {
			return nil, fmt.Errorf("topdown: predicates on %v", v.Kind)
		}
		sets[i] = v.Set
	}
	for _, pred := range f.Preds {
		// Filter expressions use forward (document-order) positions.
		if err := ev.filter(pred, sets, false); err != nil {
			return nil, err
		}
	}
	return sets, nil
}

// filter replaces every group by its members at which pred holds, each
// member at its position in the group — counted from the end when
// reverse — with the group's length as context size: the contexts of all
// groups are deduplicated into one vector and pred evaluated once over
// it, E↓.
func (ev *run) filter(pred xpath.Expr, groups []xmltree.NodeSet, reverse bool) error {
	if ev.nested == len(ev.indexes) {
		ev.indexes = append(ev.indexes, map[semantics.Context]int{})
	}
	index := ev.indexes[ev.nested]
	clear(index)
	ev.nested++
	defer func() { ev.nested-- }()
	var ctxs []semantics.Context
	for _, s := range groups {
		if err := ev.cancel.Check(); err != nil {
			return err
		}
		for j, y := range s {
			c := semantics.Context{Node: y, Pos: position(j, len(s), reverse), Size: len(s)}
			if _, ok := index[c]; !ok {
				index[c] = len(ctxs)
				ctxs = ev.ctxs.Append(ctxs, c)
			}
		}
	}
	if len(ctxs) == 0 {
		return nil
	}
	rs, err := ev.evalVector(pred, ctxs)
	if err != nil {
		return err
	}
	for gi, s := range groups {
		if err := ev.cancel.Check(); err != nil {
			return err
		}
		keep := ev.ar.Nodes(len(s))
		for j, y := range s {
			c := semantics.Context{Node: y, Pos: position(j, len(s), reverse), Size: len(s)}
			if semantics.ToBoolean(rs[index[c]]) {
				keep = append(keep, y)
			}
		}
		groups[gi] = ev.ar.Trim(keep)
	}
	return nil
}

// position is idx_χ of the j-th member, in document order, of a group of
// size members (Section 4).
func position(j, size int, reverse bool) int {
	if reverse {
		return size - j
	}
	return j + 1
}

// evalStepVector implements the location-step case of Figure 7:
//
//	S := {⟨x,y⟩ | x ∈ ⋃Xi, x χ y, y ∈ T(t)}
//	for each predicate e (in order):
//	    CtS(x,y) := ⟨y, idx_χ(y, Sx), |Sx|⟩
//	    T := deduplicated contexts; r := E↓[[e]](T)
//	    S := {⟨x,y⟩ ∈ S | r at CtS(x,y) is true}
//	Ri := {y | ⟨x,y⟩ ∈ S, x ∈ Xi}
//
// The pair relation is grouped by previous context node x, which is
// exactly the Remark 6.7 representation of contexts as
// previous/current-node pairs.
func (ev *run) evalStepVector(step *xpath.Step, inputs []xmltree.NodeSet) ([]xmltree.NodeSet, error) {
	// ⋃Xi
	eq := allEqual(inputs)
	union := inputs[0]
	if !eq {
		ix := ev.doc.Index()
		sc := ix.AcquireScratch()
		for _, x := range inputs {
			sc.Acc.Add(x)
		}
		union = sc.Acc.Result(ev.ar)
		ix.ReleaseScratch(sc)
	}
	out := ev.sets.Zeros(len(inputs))
	if len(union) == 0 {
		return out, nil
	}

	// Fast path: no predicates means Ri = χ(Xi) ∩ T(t); when all input
	// slots are identical we can evaluate once. A step bills the
	// canceller its input and its image, as evalutil.Forward's do; a slot
	// bills at least one unit.
	if len(step.Preds) == 0 {
		if eq {
			res := evalutil.StepCandidatesSet(ev.ar, ev.doc, step.Axis, step.Test, union)
			if err := ev.cancel.CheckN(len(union) + len(res)); err != nil {
				return nil, err
			}
			for i := range out {
				out[i] = res
			}
			return out, nil
		}
		for i, xi := range inputs {
			out[i] = evalutil.StepCandidatesSet(ev.ar, ev.doc, step.Axis, step.Test, xi)
			if err := ev.cancel.CheckN(1 + len(xi) + len(out[i])); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// General case with predicates: the candidates of union[k] are sx[k].
	sx := ev.sets.Zeros(len(union))
	for k, x := range union {
		if err := ev.cancel.Check(); err != nil {
			return nil, err
		}
		sx[k] = evalutil.StepCandidatesSet(ev.ar, ev.doc, step.Axis, step.Test, append(ev.ar.Nodes(1), x))
	}
	for _, pred := range step.Preds {
		if err := ev.filter(pred, sx, step.Axis.IsReverse()); err != nil {
			return nil, err
		}
	}
	// Distribute: Ri = ⋃{Sx | x ∈ Xi}, once when every slot is ⋃Xi.
	ix := ev.doc.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	row := func(x xmltree.NodeID) xmltree.NodeSet {
		k, _ := slices.BinarySearch(union, x)
		return sx[k]
	}
	for i, xi := range inputs {
		if err := ev.cancel.Check(); err != nil {
			return nil, err
		}
		if eq && i > 0 {
			out[i] = out[0]
			continue
		}
		out[i] = evalutil.ComposeRow(ev.ar, &sc.Acc, xi, row)
	}
	return out, nil
}

func allEqual(sets []xmltree.NodeSet) bool {
	for i := 1; i < len(sets); i++ {
		if !sets[i].Equal(sets[0]) {
			return false
		}
	}
	return true
}
