package xmltree

import (
	"fmt"
	"math"
)

// Builder assembles a Document node by node in document order. It is used
// both by the XML parser and by synthetic workload generators, which can
// build multi-megabyte trees without serializing and re-parsing XML.
//
// A Builder starts with the root node already open. Elements are opened
// with StartElement and closed with EndElement; attributes must be added
// immediately after StartElement, before any content.
type Builder struct {
	doc *Document
	// The open element chain, stack[0] the root, each with the last
	// child emitted under it (NilNode if none).
	stack []struct{ id, last NodeID }

	// Element names are numbered from 1 (Index.label maps them), every
	// other name from -1 down (others maps them): one label column, with
	// the posting lists Done lays out covering element labels only.
	// count[l] is how many elements carry element label l.
	elems, others nameNumbers
	count         []int32

	// side is the text the nodes do not find in the source: what a
	// reference or a carriage return made the scanner decode, and all a
	// Builder caller passes in.
	side []byte

	// IDAttributes is the set of attribute names treated as ID-typed
	// for deref_ids. It defaults to {"id"}; XML without a DTD has no
	// other way to declare IDs, and the paper's documents (Fig. 8) use
	// exactly the attribute "id". The document keeps the set Done finds
	// here, so it must not be written afterwards.
	IDAttributes map[string]bool
}

// nameNumbers numbers one kind of name from 1 in order of first sight.
type nameNumbers struct {
	names  []string // by number; names[0] is unused
	number map[string]int32
	recent [64]int32 // numbers of names seen lately
}

// of returns name's number, adding it if it is new, and whether it was.
// Most names were seen lately: a hash of the length and the ends finds
// their number without probing the map.
func (ns *nameNumbers) of(name string) (int32, bool) {
	h := len(name)
	if h > 0 {
		h = (h + int(name[0])*7 + int(name[h-1])*31) & (len(ns.recent) - 1)
	}
	if l := ns.recent[h]; l != 0 && ns.names[l] == name {
		return l, false
	}
	l, ok := ns.number[name]
	if !ok {
		if ns.number == nil {
			ns.number = map[string]int32{}
		}
		l = int32(len(ns.names))
		ns.number[name] = l
		ns.names = append(ns.names, name)
	}
	ns.recent[h] = l
	return l, !ok
}

// NewBuilder returns a Builder with the root node open.
func NewBuilder() *Builder { return newBuilder(64, "") }

// newBuilder is NewBuilder with room for n nodes in every column, for a
// document whose nodes alias src.
func newBuilder(n int, src string) *Builder {
	d := &Document{types: append(make([]NodeType, 0, n), Root), parent: append(make([]NodeID, 0, n), NilNode),
		nextSibling: append(make([]NodeID, 0, n), NilNode), label: make([]int32, 1, n),
		dataOff: make([]uint32, 1, n), dataLen: make([]uint32, 1, n), src: src}
	// The root's subtree end is set at Done; it counts as content.
	d.idx = Index{subtreeEnd: make([]NodeID, 1, n), contentBefore: append(make([]int32, 0, n+1), 0, 1), label: map[string]int32{}}
	// Room for 32 names and 32 levels of nesting, which few documents pass.
	b := &Builder{doc: d, stack: make([]struct{ id, last NodeID }, 1, 32), count: make([]int32, 1, 32),
		IDAttributes: map[string]bool{"id": true}}
	b.stack[0].last = NilNode
	b.elems = nameNumbers{names: make([]string, 1, 32), number: d.idx.label}
	b.others.names = make([]string, 1, 8)
	return b
}

// span is where a node's character data lies in the document's text
// (Document.Data): off counts into the source and then on into side.
type span struct{ off, n uint32 }

// source is the span of src[lo:hi].
func (b *Builder) source(lo, hi int) span { return span{uint32(lo), uint32(hi - lo)} }

// keep copies s into side and returns its span.
func keep[T string | []byte](b *Builder, s T) span {
	at := span{uint32(len(b.doc.src) + len(b.side)), uint32(len(s))}
	b.side = append(b.side, s...)
	return at
}

// appendNode adds a node as the last child of the innermost open one.
func (b *Builder) appendNode(t NodeType, label int32, data span) NodeID {
	d := b.doc
	id, top := NodeID(d.Len()), &b.stack[len(b.stack)-1]
	if top.last != NilNode {
		d.nextSibling[top.last] = id
	}
	parent := top.id
	top.last = id
	// One statement a column: s = append(s, x) stores only the length, a
	// tuple assignment whole slice headers, with write barriers.
	d.types = append(d.types, t)
	d.parent = append(d.parent, parent)
	d.nextSibling = append(d.nextSibling, NilNode)
	d.label = append(d.label, label)
	d.dataOff = append(d.dataOff, data.off)
	d.dataLen = append(d.dataLen, data.n)
	// A leaf's subtree is itself; an element's end is set when it closes.
	ix := &d.idx
	content := ix.contentBefore[id]
	if t != Attribute && t != Namespace {
		content++
	}
	ix.subtreeEnd = append(ix.subtreeEnd, id+1)
	ix.contentBefore = append(ix.contentBefore, content)
	return id
}

// named adds a node other than an element, numbering its name; a node
// without a name has label 0.
func (b *Builder) named(t NodeType, name string, data span) NodeID {
	var l int32
	if name != "" {
		l, _ = b.others.of(name)
		l = -l
	}
	return b.appendNode(t, l, data)
}

// StartElement opens a new element with the given name.
func (b *Builder) StartElement(name string) NodeID {
	l, added := b.elems.of(name)
	if added {
		b.count = append(b.count, 0)
	}
	b.count[l]++
	id := b.appendNode(Element, l, span{})
	b.stack = append(b.stack, struct{ id, last NodeID }{id, NilNode})
	return id
}

// openName is the name of the innermost open element.
func (b *Builder) openName() string {
	return b.elems.names[b.doc.label[b.stack[len(b.stack)-1].id]]
}

// EndElement closes the most recently opened element.
func (b *Builder) EndElement() {
	if len(b.stack) == 1 {
		panic("xmltree: EndElement with no open element")
	}
	// Preorder: the element's subtree is everything added since it opened.
	b.doc.idx.subtreeEnd[b.stack[len(b.stack)-1].id] = NodeID(b.doc.Len())
	b.stack = b.stack[:len(b.stack)-1]
}

// Attribute adds an attribute node to the currently open element. It must
// be called before any content is added to the element.
func (b *Builder) Attribute(name, value string) NodeID {
	return b.named(Attribute, name, keep(b, value))
}

// NamespaceNode adds a namespace node (prefix → uri) to the currently
// open element.
func (b *Builder) NamespaceNode(prefix, uri string) NodeID {
	return b.named(Namespace, prefix, keep(b, uri))
}

// Text adds a text node.
func (b *Builder) Text(data string) NodeID {
	return b.appendNode(Text, 0, keep(b, data))
}

// Comment adds a comment node.
func (b *Builder) Comment(data string) NodeID {
	return b.appendNode(Comment, 0, keep(b, data))
}

// ProcInst adds a processing-instruction node with the given target and
// body.
func (b *Builder) ProcInst(target, data string) NodeID {
	return b.named(ProcInst, target, keep(b, data))
}

// Done finalizes and returns the Document. The Builder must not be used
// afterwards. It is an error to call Done with unclosed elements, or
// with more text than data offsets reach (4 GiB).
func (b *Builder) Done() (*Document, error) {
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("xmltree: %d unclosed element(s)", len(b.stack)-1)
	}
	d := b.doc
	if len(d.src)+len(b.side) > math.MaxUint32 {
		return nil, fmt.Errorf("xmltree: %d bytes of text, more than 4 GiB", len(d.src)+len(b.side))
	}
	d.idAttrs = b.IDAttributes
	if len(b.side) > 0 {
		d.side = string(b.side)
	}
	d.names, d.otherNames = b.elems.names, b.others.names
	ix := &d.idx
	ix.subtreeEnd[0] = NodeID(d.Len())
	// A counting sort puts the posting lists, each capped at its end, in
	// one array; count[l] becomes list l's fill cursor.
	elements := int32(0)
	for _, c := range b.count {
		elements += c
	}
	all := make(NodeSet, elements)
	ix.named = make([]posting, len(b.count))
	at := int32(0)
	for l, c := range b.count {
		ix.named[l].set = all[at : at+c : at+c]
		b.count[l], at = at, at+c
	}
	for i, t := range d.types {
		if t == Element {
			l := d.label[i]
			all[b.count[l]] = NodeID(i)
			b.count[l]++
		}
	}
	ix.scratch.New = func() any { return &Scratch{} }
	ix.arenas.New = func() any { return &Arena{} }
	d.fixed = d.columnBytes()
	b.doc = nil
	return d, nil
}

// MustDone is Done for synthetic documents known to be well-formed.
func (b *Builder) MustDone() *Document {
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

// csr is a relation over the nodes of a document, row x being
// to[off[x]:off[x+1]]; without offsets every row is empty.
type csr struct {
	off []int32
	to  NodeSet
}

// row returns row x, nil when empty, capped against appends.
func (r *csr) row(x NodeID) NodeSet {
	if r.off == nil || r.off[x] == r.off[x+1] {
		return nil
	}
	return r.to[r.off[x]:r.off[x+1]:r.off[x+1]]
}

// buildRef computes the ref relation of Theorem 10.7 — ⟨x,y⟩ ∈ ref iff
// the text directly inside x has a whitespace-separated token equal to
// the ID of y — and its transpose, with sorted rows. A node other than
// an element or the root is its own string-value, so its row holds the
// tokens of its own data (axes.EvalID reads it for members of S only,
// never for a text node below an element). Linear in the document text.
func (d *Document) buildRef() {
	ids := d.idTable()
	if len(ids) == 0 {
		return
	}
	n := d.Len()
	fwd := csr{off: make([]int32, n+1)}
	for i := 0; i < d.Len(); i++ {
		text := d.Data(NodeID(i))
		if t := d.types[i]; t == Element || t == Root {
			text = d.DirectText(NodeID(i))
		}
		start := len(fwd.to)
		for tok, rest := Field(text); tok != ""; tok, rest = Field(rest) {
			if y, ok := ids[tok]; ok {
				fwd.to = append(fwd.to, y)
			}
		}
		fwd.to = fwd.to[:start+len(fwd.to[start:].Normalized())]
		fwd.off[i+1] = int32(len(fwd.to))
	}
	// Counting sort: off[y] ends row y, then walks back to its start as
	// the sources, last first, are put in place.
	inv := csr{off: make([]int32, n+1), to: make(NodeSet, len(fwd.to))}
	for _, y := range fwd.to {
		inv.off[y]++
	}
	for i := 1; i <= n; i++ {
		inv.off[i] += inv.off[i-1]
	}
	for x := NodeID(n - 1); x >= 0; x-- {
		for _, y := range fwd.row(x) {
			inv.off[y]--
			inv.to[inv.off[y]] = x
		}
	}
	d.ref, d.refInv = fwd, inv
	d.lazy.Add(4 * int64(cap(fwd.off)+cap(fwd.to)+cap(inv.off)+cap(inv.to)))
}
