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
	// The node arena, one column per field (package comment, "How the
	// arena is stored"); an absent link is NilNode.
	types                                        []NodeType
	parent, firstChild, nextSibling, prevSibling []NodeID
	names, data                                  []string

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

	// ref is the relation of Theorem 10.7 and refInv its inverse, built
	// (buildRef) on first use under the contract of the index below: a
	// document nobody asks id() of never pays the pass over its text.
	refOnce     sync.Once
	ref, refInv csr

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
func (d *Document) Len() int { return len(d.types) }

// RootID returns the NodeID of the root node (always 0).
func (d *Document) RootID() NodeID { return 0 }

// Type returns the node type of id.
func (d *Document) Type(id NodeID) NodeType { return d.types[id] }

// IsAttrOrNS reports whether id is an attribute or a namespace node, the
// two types that ordinary axes filter out (Section 4).
func (d *Document) IsAttrOrNS(id NodeID) bool {
	return d.types[id] == Attribute || d.types[id] == Namespace
}

// Name returns the node name of id.
func (d *Document) Name(id NodeID) string { return d.names[id] }

// Data returns the character data of id, "" for an element or the root.
func (d *Document) Data(id NodeID) string { return d.data[id] }

// FirstChild implements the primitive function firstchild: dom → dom.
func (d *Document) FirstChild(id NodeID) NodeID { return d.firstChild[id] }

// NextSibling implements the primitive function nextsibling: dom → dom.
func (d *Document) NextSibling(id NodeID) NodeID { return d.nextSibling[id] }

// PrevSibling implements nextsibling⁻¹.
func (d *Document) PrevSibling(id NodeID) NodeID { return d.prevSibling[id] }

// Parent returns the parent node, or NilNode for the root. Note that in
// the abstract model parent = (nextsibling⁻¹)*.firstchild⁻¹; the arena
// stores it directly.
func (d *Document) Parent(id NodeID) NodeID { return d.parent[id] }

// FirstChildInv implements firstchild⁻¹: it returns the parent of id iff
// id is its parent's first child, and NilNode otherwise.
func (d *Document) FirstChildInv(id NodeID) NodeID {
	p := d.parent[id]
	if p != NilNode && d.firstChild[p] == id {
		return p
	}
	return NilNode
}

// StringValue computes strval (Section 4): for element and root nodes the
// concatenation of all descendant text nodes in document order; for text,
// comment and processing-instruction nodes their character data; for
// attribute and namespace nodes their value.
func (d *Document) StringValue(id NodeID) string {
	if t := d.types[id]; t != Element && t != Root {
		return d.data[id]
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
	if t := d.types[id]; t != Element && t != Root {
		yield(d.data[id])
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
	for c := d.firstChild[id]; c != NilNode; c = d.nextSibling[c] {
		switch d.types[c] {
		case Text:
			if !yield(d.data[c]) {
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
	for c := d.firstChild[id]; c != NilNode; c = d.nextSibling[c] {
		if d.types[c] == Text {
			b.WriteString(d.data[c])
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
		for i := 0; i < d.Len(); i++ {
			if d.types[i] != Attribute || !d.idAttrs[d.names[i]] {
				continue
			}
			if _, dup := d.ids[d.data[i]]; !dup {
				d.ids[d.data[i]] = d.parent[i]
			}
		}
	})
	return d.ids
}

// Ref returns row x of the ref relation (Theorem 10.7, buildRef): the
// elements whose ID appears as a whitespace-separated token in the text
// directly inside x — or, x not being an element or the root, in x's
// own character data — in document order. The row is shared and must
// not be written.
func (d *Document) Ref(x NodeID) NodeSet {
	d.refOnce.Do(d.buildRef)
	return d.ref.row(x)
}

// RefInv returns the nodes that reference y via the ref relation, in
// document order. The row is shared and must not be written.
func (d *Document) RefInv(y NodeID) NodeSet {
	d.refOnce.Do(d.buildRef)
	return d.refInv.row(y)
}

// Attr returns the value of the named attribute of element id and whether
// it is present.
func (d *Document) Attr(id NodeID, name string) (string, bool) {
	for c := d.firstChild[id]; c != NilNode; c = d.nextSibling[c] {
		if d.types[c] == Attribute && d.names[c] == name {
			return d.data[c], true
		}
	}
	return "", false
}

// Children returns the regular (non-attribute, non-namespace) children of
// id in document order.
func (d *Document) Children(id NodeID) []NodeID {
	var out []NodeID
	for c := d.firstChild[id]; c != NilNode; c = d.nextSibling[c] {
		if !d.IsAttrOrNS(c) {
			out = append(out, c)
		}
	}
	return out
}

// DocumentElement returns the document element (the single element child
// of the root), or NilNode for a pathological empty document.
func (d *Document) DocumentElement() NodeID {
	for c := d.firstChild[0]; c != NilNode; c = d.nextSibling[c] {
		if d.types[c] == Element {
			return c
		}
	}
	return NilNode
}

// Lang returns the value of the nearest xml:lang attribute on id or an
// ancestor, supporting the lang() core function.
func (d *Document) Lang(id NodeID) string {
	for n := id; n != NilNode; n = d.parent[n] {
		if d.types[n] != Element {
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
	for i := 0; i < d.Len(); i++ {
		if d.types[i] == Element && !seen[d.names[i]] {
			seen[d.names[i]] = true
			out = append(out, d.names[i])
		}
	}
	sort.Strings(out)
	return out
}
