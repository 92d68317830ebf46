package xmltree

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Document is an immutable XML document tree in the paper's data model.
// Nodes live in a dense arena indexed by NodeID; arena order is document
// order (the order of opening tags, with namespace and attribute nodes
// placed directly after their element, namespaces first — matching the
// XPath 1.0 document-order rules).
type Document struct {
	nodes []Node

	// ids maps an ID value to the element node carrying it, supporting
	// the deref_ids function of Section 4: the first element in
	// document order that has the value in an attribute named in
	// idAttrs (the builder's IDAttributes set, default {"id"}). Only
	// id() evaluation reads it, so it is built on first use (idTable),
	// under the contract of ref and the index below — a document nobody
	// asks id() of pays neither the pass nor the map.
	idAttrs map[string]bool
	idsOnce sync.Once
	ids     map[string]NodeID

	// ref is the auxiliary relation of Theorem 10.7: ref contains ⟨x,y⟩
	// iff the text *directly* inside x (not in descendants) contains a
	// whitespace-separated token equal to the ID of y. Stored as a
	// forward adjacency list plus its inverse, built on first use under
	// the same contract as the index below: at most once, never seen
	// half built. Only id() evaluation reads it (axes.EvalID and
	// EvalIDInverse), so a document nobody asks id() of never pays the
	// pass over its text.
	refOnce sync.Once
	ref     map[NodeID][]NodeID
	refInv  map[NodeID][]NodeID

	// strval memoizes strval for element and root nodes, which is the
	// concatenation of descendant text (Section 4). Every engine and
	// every rendered node of every concurrent request on the document
	// reads it, so the lazy fill is lock-free: a slot is published with
	// one atomic store, and two readers racing on an empty slot both
	// compute the same string and one store wins. Everything else in a
	// Document is immutable after construction.
	strval []atomic.Pointer[string]

	// idx is the lazily built structural index (subtree intervals, name
	// posting lists, evaluator scratch pool); see Index().
	idxOnce sync.Once
	idx     *Index
}

// Len returns |dom|, the number of nodes in the document.
func (d *Document) Len() int { return len(d.nodes) }

// RootID returns the NodeID of the root node (always 0).
func (d *Document) RootID() NodeID { return 0 }

// Node returns the node with the given ID. The returned pointer aliases
// the document's arena and must not be mutated.
func (d *Document) Node(id NodeID) *Node { return &d.nodes[id] }

// Type returns the node type of id.
func (d *Document) Type(id NodeID) NodeType { return d.nodes[id].Type }

// Name returns the node name of id.
func (d *Document) Name(id NodeID) string { return d.nodes[id].Name }

// FirstChild implements the primitive function firstchild: dom → dom.
func (d *Document) FirstChild(id NodeID) NodeID { return d.nodes[id].FirstChild }

// NextSibling implements the primitive function nextsibling: dom → dom.
func (d *Document) NextSibling(id NodeID) NodeID { return d.nodes[id].NextSibling }

// PrevSibling implements nextsibling⁻¹.
func (d *Document) PrevSibling(id NodeID) NodeID { return d.nodes[id].PrevSibling }

// Parent returns the parent node, or NilNode for the root. Note that in
// the abstract model parent = (nextsibling⁻¹)*.firstchild⁻¹; the arena
// stores it directly.
func (d *Document) Parent(id NodeID) NodeID { return d.nodes[id].Parent }

// FirstChildInv implements firstchild⁻¹: it returns the parent of id iff
// id is its parent's first child, and NilNode otherwise.
func (d *Document) FirstChildInv(id NodeID) NodeID {
	p := d.nodes[id].Parent
	if p != NilNode && d.nodes[p].FirstChild == id {
		return p
	}
	return NilNode
}

// Before reports whether a precedes b in document order (a <doc b).
func (d *Document) Before(a, b NodeID) bool { return a < b }

// StringValue computes strval (Section 4): for element and root nodes the
// concatenation of all descendant text nodes in document order; for text,
// comment and processing-instruction nodes their character data; for
// attribute and namespace nodes their value.
func (d *Document) StringValue(id NodeID) string {
	n := &d.nodes[id]
	switch n.Type {
	case Text, Comment:
		return n.Data
	case ProcInst:
		return n.Data
	case Attribute, Namespace:
		return n.Data
	}
	// Element or root: memoized concatenation of descendant text.
	if p := d.strval[id].Load(); p != nil {
		return *p
	}
	var b strings.Builder
	d.yieldText(id, func(piece string) bool { b.WriteString(piece); return true })
	s := b.String()
	d.strval[id].Store(&s)
	return s
}

// StringValueChunks is the append form of StringValue: it hands yield
// the pieces whose concatenation is StringValue(id), in document order,
// until yield returns false. A renderer that escapes or clips as it
// copies therefore never needs an element's text concatenated into a
// string of its own first. It neither fills nor needs the memo, but an
// element value some evaluator already memoized arrives as one piece.
func (d *Document) StringValueChunks(id NodeID, yield func(string) bool) {
	n := &d.nodes[id]
	if n.Type != Element && n.Type != Root {
		yield(n.Data)
		return
	}
	if p := d.strval[id].Load(); p != nil {
		yield(*p)
		return
	}
	d.yieldText(id, yield)
}

// yieldText hands yield the descendant text nodes of id in document
// order — the one walk behind StringValue and StringValueChunks — and
// reports false once yield has asked to stop.
func (d *Document) yieldText(id NodeID, yield func(string) bool) bool {
	for c := d.nodes[id].FirstChild; c != NilNode; c = d.nodes[c].NextSibling {
		switch d.nodes[c].Type {
		case Text:
			if !yield(d.nodes[c].Data) {
				return false
			}
		case Element:
			if !d.yieldText(c, yield) {
				return false
			}
		}
	}
	return true
}

// DirectText returns the concatenation of text directly inside id (not in
// descendants). Used to build the ref relation of Theorem 10.7.
func (d *Document) DirectText(id NodeID) string {
	var b strings.Builder
	for c := d.nodes[id].FirstChild; c != NilNode; c = d.nodes[c].NextSibling {
		if d.nodes[c].Type == Text {
			b.WriteString(d.nodes[c].Data)
		}
	}
	return b.String()
}

// DerefIDs implements deref_ids: string → 2^dom (Section 4). The input is
// interpreted as a whitespace-separated list of keys; the result is the
// set of nodes whose IDs are in the list, sorted in document order.
func (d *Document) DerefIDs(s string) []NodeID {
	var out []NodeID
	seen := map[NodeID]bool{}
	ids := d.idTable()
	for _, key := range strings.Fields(s) {
		if n, ok := ids[key]; ok && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IDOf returns the element registered under the given ID, or NilNode.
func (d *Document) IDOf(key string) NodeID {
	if n, ok := d.idTable()[key]; ok {
		return n
	}
	return NilNode
}

// idTable returns the ID table, building it on first use. Safe for
// concurrent use.
func (d *Document) idTable() map[string]NodeID {
	d.idsOnce.Do(func() {
		d.ids = map[string]NodeID{}
		for i := range d.nodes {
			n := &d.nodes[i]
			if n.Type != Attribute || !d.idAttrs[n.Name] {
				continue
			}
			if _, dup := d.ids[n.Data]; !dup {
				d.ids[n.Data] = n.Parent
			}
		}
	})
	return d.ids
}

// Ref returns the nodes referenced from x via the ref relation
// (Theorem 10.7): nodes whose ID appears as a whitespace-separated token
// in the text directly inside x.
func (d *Document) Ref(x NodeID) []NodeID {
	d.refOnce.Do(d.buildRef)
	return d.ref[x]
}

// RefInv returns the nodes that reference y via the ref relation.
func (d *Document) RefInv(y NodeID) []NodeID {
	d.refOnce.Do(d.buildRef)
	return d.refInv[y]
}

// Attributes returns the attribute nodes of an element in document order.
func (d *Document) Attributes(id NodeID) []NodeID {
	var out []NodeID
	for c := d.nodes[id].FirstChild; c != NilNode; c = d.nodes[c].NextSibling {
		if d.nodes[c].Type == Attribute {
			out = append(out, c)
		}
	}
	return out
}

// Attr returns the value of the named attribute of element id and whether
// it is present.
func (d *Document) Attr(id NodeID, name string) (string, bool) {
	for c := d.nodes[id].FirstChild; c != NilNode; c = d.nodes[c].NextSibling {
		if d.nodes[c].Type == Attribute && d.nodes[c].Name == name {
			return d.nodes[c].Data, true
		}
	}
	return "", false
}

// Children returns the regular (non-attribute, non-namespace) children of
// id in document order.
func (d *Document) Children(id NodeID) []NodeID {
	var out []NodeID
	for c := d.nodes[id].FirstChild; c != NilNode; c = d.nodes[c].NextSibling {
		if !d.nodes[c].IsAttrOrNS() {
			out = append(out, c)
		}
	}
	return out
}

// DocumentElement returns the document element (the single element child
// of the root), or NilNode for a pathological empty document.
func (d *Document) DocumentElement() NodeID {
	for c := d.nodes[0].FirstChild; c != NilNode; c = d.nodes[c].NextSibling {
		if d.nodes[c].Type == Element {
			return c
		}
	}
	return NilNode
}

// Lang returns the value of the nearest xml:lang attribute on id or an
// ancestor, supporting the lang() core function.
func (d *Document) Lang(id NodeID) string {
	for n := id; n != NilNode; n = d.nodes[n].Parent {
		if d.nodes[n].Type != Element {
			continue
		}
		if v, ok := d.Attr(n, "xml:lang"); ok {
			return v
		}
	}
	return ""
}

// Names returns the set of distinct element names in the document. Used
// by the XPatterns first-of-type/last-of-type predicates (Theorem 10.8),
// whose precomputation is O(|D|·|Σ|).
func (d *Document) Names() []string {
	seen := map[string]bool{}
	var out []string
	for i := range d.nodes {
		if d.nodes[i].Type == Element && !seen[d.nodes[i].Name] {
			seen[d.nodes[i].Name] = true
			out = append(out, d.nodes[i].Name)
		}
	}
	sort.Strings(out)
	return out
}
