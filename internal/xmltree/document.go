package xmltree

import (
	"math"
	"strconv"
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
	// The node arena, one column per field and none holding a pointer
	// (package comment, "How the arena is stored"); an absent link is
	// NilNode. firstchild and nextsibling⁻¹ are not stored: the preorder
	// subtree intervals of the Index give them.
	types               []NodeType
	parent, nextSibling []NodeID
	label               []int32  // id's name by its number (Name)
	dataOff, dataLen    []uint32 // id's character data in text (Data)

	// The name tables: names holds the element names by label from 1,
	// otherNames those of other nodes by label from -1 down; label 0 is
	// no name.
	names, otherNames []string

	// The text the character data lies in: src, the source a parsed
	// document aliases, then side, what was decoded or handed to a
	// Builder. A data offset below len(src) is in src, the rest in side.
	src, side string

	// ids maps an ID value to the element node carrying it, supporting
	// the deref_ids function of Section 4: the first element in
	// document order that has the value in an attribute named in
	// idAttrs (the builder's IDAttributes set, default {"id"}). Only
	// id() evaluation reads it, so it is built on first use (idTable),
	// under a sync.Once like ref below — a document nobody asks id() of
	// pays neither the pass nor the map.
	idAttrs map[string]bool
	idsOnce sync.Once
	ids     map[string]NodeID

	// ref is the relation of Theorem 10.7 and refInv its inverse, built
	// (buildRef) on first use: a document nobody asks id() of never pays
	// the pass over its text (node.go says why neither is built early).
	refOnce     sync.Once
	ref, refInv csr

	// strval memoizes strval for element and root nodes whose value is
	// not that of at most one text child: the concatenation of
	// descendant text (Section 4). Every engine and every rendered node
	// of every concurrent request on the document reads it, so the lazy
	// fill is lock-free: the table is allocated on the first store and
	// published with one compare-and-swap, a slot with one atomic store,
	// and two readers racing on an empty slot both compute the same
	// string and one store wins. Everything else in a Document is
	// immutable after construction.
	strval atomic.Pointer[[]atomic.Pointer[string]]

	// fixed is what the Builder left (Bytes), lazy what the columns,
	// tables and memo built on first use have added since.
	fixed int64
	lazy  atomic.Int64

	idx Index // the structural index the Builder laid out; see Index()
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
func (d *Document) Name(id NodeID) string {
	l := d.label[id]
	if l < 0 {
		return d.otherNames[-l]
	}
	return d.names[l]
}

// Data returns the character data of id, "" for an element or the root.
func (d *Document) Data(id NodeID) string {
	off, end := d.dataOff[id], d.dataOff[id]+d.dataLen[id]
	if int(off) < len(d.src) {
		return d.src[off:end]
	}
	at := uint32(len(d.src))
	return d.side[off-at : end-at]
}

// FirstChild implements the primitive function firstchild: dom → dom.
// In preorder a node's first child, if it has one, comes right after it.
func (d *Document) FirstChild(id NodeID) NodeID {
	if c := id + 1; c < d.idx.subtreeEnd[id] {
		return c
	}
	return NilNode
}

// NextSibling implements the primitive function nextsibling: dom → dom.
func (d *Document) NextSibling(id NodeID) NodeID { return d.nextSibling[id] }

// PrevSibling implements nextsibling⁻¹. Unless id is its parent's first
// child, the node before it in preorder lies in its previous sibling's
// subtree, which holds the node's ancestors up to that sibling: the
// walk up is as long as the sibling's subtree is deep.
func (d *Document) PrevSibling(id NodeID) NodeID {
	p := d.parent[id]
	if p == NilNode || p == id-1 {
		return NilNode
	}
	y := id - 1
	for d.parent[y] != p {
		y = d.parent[y]
	}
	return y
}

// Parent returns the parent node, or NilNode for the root. Note that in
// the abstract model parent = (nextsibling⁻¹)*.firstchild⁻¹; the arena
// stores it directly.
func (d *Document) Parent(id NodeID) NodeID { return d.parent[id] }

// FirstChildInv implements firstchild⁻¹: it returns the parent of id iff
// id is its parent's first child, and NilNode otherwise.
func (d *Document) FirstChildInv(id NodeID) NodeID {
	if p := d.parent[id]; p != NilNode && p == id-1 {
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
		return d.Data(id)
	}
	if d.idx.subtreeEnd[id] == id+2 && d.types[id+1] == Text {
		return d.Data(id + 1) // the commonest element: one text child, nothing else
	}
	return d.elementValue(id)
}

// elementValue is StringValue of an element or the root other than a
// leaf holding one text node.
func (d *Document) elementValue(id NodeID) string {
	if s, ok := d.memoized(id); ok {
		return s
	}
	if s, ok := d.leafValue(id); ok {
		return s
	}
	var b strings.Builder
	d.yieldText(id, func(piece string) bool { b.WriteString(piece); return true })
	s := b.String()
	memo := d.strval.Load()
	if memo == nil {
		table := make([]atomic.Pointer[string], d.Len())
		if d.strval.CompareAndSwap(nil, &table) {
			d.lazy.Add(8 * int64(len(table)))
		}
		memo = d.strval.Load()
	}
	(*memo)[id].Store(&s)
	return s
}

// memoized returns the memo's value for id, if it holds one.
func (d *Document) memoized(id NodeID) (string, bool) {
	if memo := d.strval.Load(); memo != nil {
		if p := (*memo)[id].Load(); p != nil {
			return *p, true
		}
	}
	return "", false
}

// leafValue returns the string-value of the element or root id when it
// has no element child and at most one text child — that child's data,
// which the document's text already holds, so the memo never needs it —
// and false otherwise.
func (d *Document) leafValue(id NodeID) (string, bool) {
	text, pieces := "", 0
	for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
		switch d.types[c] {
		case Text:
			if pieces++; pieces > 1 {
				return "", false
			}
			text = d.Data(c)
		case Element:
			return "", false
		}
	}
	return text, true
}

// StringValueChunks is the append form of StringValue: it hands yield
// the pieces whose concatenation is StringValue(id), in document order,
// until yield returns false. A renderer that escapes or clips as it
// copies therefore never needs an element's text concatenated into a
// string of its own first. It neither fills nor needs the memo, but an
// element value some evaluator already memoized arrives as one piece.
func (d *Document) StringValueChunks(id NodeID, yield func(string) bool) {
	if t := d.types[id]; t != Element && t != Root {
		yield(d.Data(id))
		return
	}
	if s, ok := d.memoized(id); ok {
		yield(s)
		return
	}
	d.yieldText(id, yield)
}

// yieldText hands yield the descendant text nodes of id in document
// order — the one walk behind StringValue and StringValueChunks — and
// reports false once yield has asked to stop.
func (d *Document) yieldText(id NodeID, yield func(string) bool) bool {
	for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
		switch d.types[c] {
		case Text:
			if !yield(d.Data(c)) {
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
	for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
		if d.types[c] == Text {
			b.WriteString(d.Data(c))
		}
	}
	return b.String()
}

// IsSpace reports whether c is white space in the sense of XML's S
// production: #x20, #x9, #xD or #xA. It is the only white space of the
// data model and of XPath 1.0 (§3.7's ExprWhitespace, §4.2's
// normalize-space, §4.1's id() token lists, §4.4's number): U+00A0,
// U+2003 and the other Unicode spaces are text.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// ParseNumber converts a string to a number (to_number of Section 4
// and XPath 1.0 §4.4): optional XML whitespace, an optional minus sign,
// then Number ::= Digits ('.' Digits?)? | '.' Digits, then optional
// whitespace; anything else is NaN. The grammar is validated by a hand
// scanner before any conversion, so exponents, "inf", a leading plus
// and hexadecimal floats — all of which strconv.ParseFloat accepts —
// are NaN, and a non-numeric string-value (the common case when a
// comparison meets text) costs one pass and no allocation.
func ParseNumber(s string) float64 {
	i, j := 0, len(s)
	for i < j && IsSpace(s[i]) {
		i++
	}
	for j > i && IsSpace(s[j-1]) {
		j--
	}
	s = s[i:j]
	k := 0
	if k < len(s) && s[k] == '-' {
		k++
	}
	intStart := k
	for k < len(s) && '0' <= s[k] && s[k] <= '9' {
		k++
	}
	digits := k - intStart
	if k == len(s) {
		if digits == 0 {
			return math.NaN()
		}
		if digits <= 15 {
			// At most 15 decimal digits are exact in a float64.
			var v float64
			for _, c := range []byte(s[intStart:]) {
				v = v*10 + float64(c-'0')
			}
			if intStart == 1 {
				v = -v
			}
			return v
		}
	} else {
		if s[k] != '.' {
			return math.NaN()
		}
		k++
		fracStart := k
		for k < len(s) && '0' <= s[k] && s[k] <= '9' {
			k++
		}
		if k != len(s) || digits+k-fracStart == 0 {
			return math.NaN()
		}
	}
	// The text is a valid Number, which ParseFloat converts with correct
	// rounding; the only error left is ErrRange, whose ±Inf is the value.
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// Field returns the first run of non-S bytes of s (see IsSpace), ""
// when s is all white space, and the remainder of s behind it.
func Field(s string) (field, rest string) {
	i := 0
	for i < len(s) && IsSpace(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !IsSpace(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

// DerefIDs implements deref_ids: string → 2^dom (Section 4). The input is
// interpreted as a list of keys separated by white space (IsSpace); the
// result is the set of nodes whose IDs are in the list, sorted in
// document order.
func (d *Document) DerefIDs(s string) []NodeID { return d.AppendIDs(nil, s) }

// AppendIDs appends deref_ids(s) to dst, sorted and without duplicates:
// DerefIDs into memory the caller chose. s has at most len(s)/2+1 keys,
// so that much room in dst is always enough.
func (d *Document) AppendIDs(dst NodeSet, s string) NodeSet {
	ids, n := d.idTable(), len(dst)
	for key, rest := Field(s); key != ""; key, rest = Field(rest) {
		if id, ok := ids[key]; ok {
			dst = append(dst, id)
		}
	}
	return append(dst[:n], dst[n:].Normalized()...)
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
			id := NodeID(i)
			if d.types[i] != Attribute || !d.idAttrs[d.Name(id)] {
				continue
			}
			v := d.Data(id)
			if _, dup := d.ids[v]; !dup {
				d.ids[v] = d.parent[i]
			}
		}
		d.lazy.Add(mapBytes * int64(len(d.ids)))
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
	for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
		if d.types[c] == Attribute && d.Name(c) == name {
			return d.Data(c), true
		}
	}
	return "", false
}

// Children returns the regular (non-attribute, non-namespace) children of
// id in document order.
func (d *Document) Children(id NodeID) []NodeID {
	var out []NodeID
	for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
		if !d.IsAttrOrNS(c) {
			out = append(out, c)
		}
	}
	return out
}

// DocumentElement returns the document element (the single element child
// of the root), or NilNode for a pathological empty document.
func (d *Document) DocumentElement() NodeID {
	for c := d.FirstChild(0); c != NilNode; c = d.nextSibling[c] {
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
