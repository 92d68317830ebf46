package xmltree

import (
	"fmt"
	"slices"
	"strings"
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

	// IDAttributes is the set of attribute names treated as ID-typed
	// for deref_ids. It defaults to {"id"}; XML without a DTD has no
	// other way to declare IDs, and the paper's documents (Fig. 8) use
	// exactly the attribute "id". The document keeps the set Done finds
	// here, so it must not be written afterwards.
	IDAttributes map[string]bool
}

// NewBuilder returns a Builder with the root node open.
func NewBuilder() *Builder {
	d := &Document{nodes: make([]Node, 0, 64)}
	d.nodes = append(d.nodes, Node{
		Type:   Root,
		Parent: NilNode, FirstChild: NilNode, NextSibling: NilNode, PrevSibling: NilNode,
	})
	return &Builder{
		doc:          d,
		stack:        []NodeID{0},
		last:         []NodeID{NilNode},
		IDAttributes: map[string]bool{"id": true},
	}
}

func (b *Builder) appendNode(n Node) NodeID {
	id := NodeID(len(b.doc.nodes))
	parent := b.stack[len(b.stack)-1]
	n.Parent = parent
	n.FirstChild = NilNode
	n.NextSibling = NilNode
	n.PrevSibling = b.last[len(b.last)-1]
	b.doc.nodes = append(b.doc.nodes, n)
	if n.PrevSibling == NilNode {
		b.doc.nodes[parent].FirstChild = id
	} else {
		b.doc.nodes[n.PrevSibling].NextSibling = id
	}
	b.last[len(b.last)-1] = id
	return id
}

// StartElement opens a new element with the given name.
func (b *Builder) StartElement(name string) NodeID {
	id := b.appendNode(Node{Type: Element, Name: name})
	b.stack = append(b.stack, id)
	b.last = append(b.last, NilNode)
	return id
}

// EndElement closes the most recently opened element.
func (b *Builder) EndElement() {
	if len(b.stack) == 1 {
		panic("xmltree: EndElement with no open element")
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.last = b.last[:len(b.last)-1]
}

// Attribute adds an attribute node to the currently open element. It must
// be called before any content is added to the element.
func (b *Builder) Attribute(name, value string) NodeID {
	return b.appendNode(Node{Type: Attribute, Name: name, Data: value})
}

// NamespaceNode adds a namespace node (prefix → uri) to the currently
// open element.
func (b *Builder) NamespaceNode(prefix, uri string) NodeID {
	return b.appendNode(Node{Type: Namespace, Name: prefix, Data: uri})
}

// Text adds a text node.
func (b *Builder) Text(data string) NodeID {
	return b.appendNode(Node{Type: Text, Data: data})
}

// Comment adds a comment node.
func (b *Builder) Comment(data string) NodeID {
	return b.appendNode(Node{Type: Comment, Data: data})
}

// ProcInst adds a processing-instruction node with the given target and
// body.
func (b *Builder) ProcInst(target, data string) NodeID {
	return b.appendNode(Node{Type: ProcInst, Name: target, Data: data})
}

// Done finalizes and returns the Document. The Builder must not be used
// afterwards. It is an error to call Done with unclosed elements.
func (b *Builder) Done() (*Document, error) {
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("xmltree: %d unclosed element(s)", len(b.stack)-1)
	}
	d := b.doc
	d.idAttrs = b.IDAttributes
	d.strval = make([]atomic.Pointer[string], len(d.nodes))
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

// buildRef computes the ref relation of Theorem 10.7: ⟨x,y⟩ ∈ ref iff
// the text directly inside x contains a whitespace-separated token equal
// to the ID of y. The relation is linear in the size of the document text.
func (d *Document) buildRef() {
	d.ref = map[NodeID][]NodeID{}
	d.refInv = map[NodeID][]NodeID{}
	ids := d.idTable()
	if len(ids) == 0 {
		return
	}
	for i := range d.nodes {
		if d.nodes[i].Type != Element && d.nodes[i].Type != Root {
			continue
		}
		x := NodeID(i)
		var targets []NodeID
		for _, tok := range strings.Fields(d.DirectText(x)) {
			if y, ok := ids[tok]; ok && !slices.Contains(targets, y) {
				targets = append(targets, y)
			}
		}
		if len(targets) > 0 {
			d.ref[x] = targets
		}
		for _, y := range targets {
			d.refInv[y] = append(d.refInv[y], x)
		}
	}
}
