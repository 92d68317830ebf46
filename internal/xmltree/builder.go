package xmltree

import (
	"fmt"
	"sync/atomic"
)

// Builder assembles a Document node by node in document order. It is used
// both by the XML parser and by synthetic workload generators, which can
// build multi-megabyte trees without serializing and re-parsing XML.
//
// A Builder starts with the root node already open. Elements are opened
// with StartElement and closed with EndElement; attributes must be added
// immediately after StartElement, before any content.
type Builder struct {
	doc   *Document
	stack []NodeID // open element chain; stack[0] is the root
	last  []NodeID // last child emitted under each open node, NilNode if none

	// How many elements carry each name (Index.label numbers them) and
	// every element's name number: Done lays out the posting lists.
	count, elemLabel []int32
	labels           []string  // the names by number, from 1
	recent           [64]int32 // numbers of names seen lately (StartElement)

	// IDAttributes is the set of attribute names treated as ID-typed
	// for deref_ids. It defaults to {"id"}; XML without a DTD has no
	// other way to declare IDs, and the paper's documents (Fig. 8) use
	// exactly the attribute "id". The document keeps the set Done finds
	// here, so it must not be written afterwards.
	IDAttributes map[string]bool
}

// NewBuilder returns a Builder with the root node open.
func NewBuilder() *Builder { return newBuilder(64) }

// newBuilder is NewBuilder with room for n nodes in every column.
func newBuilder(n int) *Builder {
	links := func() []NodeID { return append(make([]NodeID, 0, n), NilNode) }
	d := &Document{types: append(make([]NodeType, 0, n), Root), names: make([]string, 1, n), data: make([]string, 1, n),
		parent: links(), firstChild: links(), nextSibling: links(), prevSibling: links()}
	// The root's subtree end is set at Done; it counts as content.
	d.idx = Index{subtreeEnd: make([]NodeID, 1, n), contentBefore: append(make([]int32, 0, n+1), 0, 1), label: map[string]int32{}}
	// Room for 32 names and 32 levels of nesting, which few documents pass.
	return &Builder{doc: d, stack: make([]NodeID, 1, 32), last: append(make([]NodeID, 0, 32), NilNode),
		count: make([]int32, 1, 32), labels: make([]string, 1, 32), elemLabel: make([]int32, 0, n/2),
		IDAttributes: map[string]bool{"id": true}}
}

// appendNode adds a node as the last child of the innermost open one.
func (b *Builder) appendNode(t NodeType, name, data string) NodeID {
	d := b.doc
	id, parent, prev := NodeID(d.Len()), b.stack[len(b.stack)-1], b.last[len(b.last)-1]
	if prev == NilNode {
		d.firstChild[parent] = id
	} else {
		d.nextSibling[prev] = id
	}
	b.last[len(b.last)-1] = id
	// One statement a column: s = append(s, x) stores only the length, a
	// tuple assignment whole slice headers, with write barriers.
	d.types = append(d.types, t)
	d.names = append(d.names, name)
	d.data = append(d.data, data)
	d.parent = append(d.parent, parent)
	d.prevSibling = append(d.prevSibling, prev)
	d.firstChild = append(d.firstChild, NilNode)
	d.nextSibling = append(d.nextSibling, NilNode)
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

// StartElement opens a new element with the given name.
func (b *Builder) StartElement(name string) NodeID {
	id := b.appendNode(Element, name, "")
	// Most names were seen lately: a hash of the length and the ends
	// finds their number without probing the label map.
	h := len(name)
	if h > 0 {
		h = (h + int(name[0])*7 + int(name[h-1])*31) & (len(b.recent) - 1)
	}
	l := b.recent[h]
	if l == 0 || b.labels[l] != name {
		var ok bool
		if l, ok = b.doc.idx.label[name]; !ok {
			l = int32(len(b.labels))
			b.doc.idx.label[name] = l
			b.labels, b.count = append(b.labels, name), append(b.count, 0)
		}
		b.recent[h] = l
	}
	b.count[l]++
	b.elemLabel = append(b.elemLabel, l)
	b.stack = append(b.stack, id)
	b.last = append(b.last, NilNode)
	return id
}

// EndElement closes the most recently opened element.
func (b *Builder) EndElement() {
	if len(b.stack) == 1 {
		panic("xmltree: EndElement with no open element")
	}
	// Preorder: the element's subtree is everything added since it opened.
	b.doc.idx.subtreeEnd[b.stack[len(b.stack)-1]] = NodeID(b.doc.Len())
	b.stack = b.stack[:len(b.stack)-1]
	b.last = b.last[:len(b.last)-1]
}

// Attribute adds an attribute node to the currently open element. It must
// be called before any content is added to the element.
func (b *Builder) Attribute(name, value string) NodeID {
	return b.appendNode(Attribute, name, value)
}

// NamespaceNode adds a namespace node (prefix → uri) to the currently
// open element.
func (b *Builder) NamespaceNode(prefix, uri string) NodeID {
	return b.appendNode(Namespace, prefix, uri)
}

// Text adds a text node.
func (b *Builder) Text(data string) NodeID {
	return b.appendNode(Text, "", data)
}

// Comment adds a comment node.
func (b *Builder) Comment(data string) NodeID {
	return b.appendNode(Comment, "", data)
}

// ProcInst adds a processing-instruction node with the given target and
// body.
func (b *Builder) ProcInst(target, data string) NodeID {
	return b.appendNode(ProcInst, target, data)
}

// Done finalizes and returns the Document. The Builder must not be used
// afterwards. It is an error to call Done with unclosed elements.
func (b *Builder) Done() (*Document, error) {
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("xmltree: %d unclosed element(s)", len(b.stack)-1)
	}
	d := b.doc
	d.idAttrs = b.IDAttributes
	d.strval = make([]atomic.Pointer[string], d.Len())
	ix := &d.idx
	ix.subtreeEnd[0] = NodeID(d.Len())
	// A counting sort puts the posting lists, each capped at its end, in
	// one array; count[l] becomes list l's fill cursor.
	all := make(NodeSet, len(b.elemLabel))
	ix.named = make([]posting, len(b.count))
	at := int32(0)
	for l, c := range b.count {
		ix.named[l].set = all[at : at+c : at+c]
		b.count[l], at = at, at+c
	}
	k := 0
	for i, t := range d.types {
		if t == Element {
			l := b.elemLabel[k]
			all[b.count[l]] = NodeID(i)
			b.count[l]++
			k++
		}
	}
	ix.scratch.New = func() any { return &Scratch{} }
	ix.arenas.New = func() any { return &Arena{} }
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
		text := d.data[i]
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
}
