// Package xmltree implements the XPath data model of Gottlob, Koch and
// Pichler, "Efficient Algorithms for Processing XPath Queries" (VLDB 2002),
// Sections 3 and 4.
//
// An XML document is an unranked, ordered, labeled tree held in a dense node
// arena. The tree structure is represented exactly by the paper's two
// "primitive" relations
//
//	firstchild, nextsibling : dom → dom
//
// and their inverses (firstchild⁻¹ is recovered from parent+prevsibling).
// Every node is one of seven types: root, element, text, comment, attribute,
// namespace, and processing instruction. Following Section 4, attribute and
// namespace nodes are modeled as abstract children of their element: the
// attribute axis is child₀(S) ∩ T(attribute()), and all ordinary axes filter
// attribute and namespace nodes out of their results.
//
// # How the arena is stored
//
// The arena is one column per node field, indexed by NodeID: the type,
// the links parent, firstchild, nextsibling and prevsibling, the name and
// the character data — 49 bytes a node, each field stored once, so an
// axis kernel asking parent(y) reads 4 bytes, not a 56-byte struct.
// Names are not interned; they alias the source (below). The Builder
// appends to every column once per node, presized by the parser.
//
// A Document is immutable once built, but for what is filled lazily and
// safely for concurrent readers: the string-value memo of element and
// root nodes (lock-free: racing readers compute the same string, one
// atomic store wins) and, under a sync.Once each, the Index, the ID
// table and the ref relation of Theorem 10.7 — two CSR arrays with
// sorted rows (row x is to[off[x]:off[x+1]]), forward and inverse, which
// id() and its inverse read as slices with no map probe and no sort.
//
// # Strings alias the source
//
// Parse reads its input into one string, ParseString is handed one, and
// every Name and Data the source spells as it is — no entity
// or character reference, no carriage return — is a substring of that
// string, not a copy: a parse allocates the arena, not a string per
// node. The consequence is the retention rule: a Document is kept or
// dropped whole, never node by node. A Name or Data held on to after its
// Document is gone (a cache key, a log field kept for long) keeps the
// entire source text reachable; copy it (strings.Clone) if it must
// outlive the document. Documents built through a Builder alias
// whatever strings the caller passed in, as they always have.
package xmltree

import "fmt"

// NodeID identifies a node within its Document. IDs are dense indices into
// the document's node arena and are assigned in document order, so comparing
// two NodeIDs compares document positions. NilNode represents "null" in the
// paper's primitive tree functions.
type NodeID int32

// NilNode is the absent node ("null" in the paper's tree functions).
const NilNode NodeID = -1

// NodeType enumerates the seven node types of the XPath 1.0 data model
// (Section 4).
type NodeType uint8

// The seven XPath node types.
const (
	Root NodeType = iota
	Element
	Text
	Comment
	Attribute
	Namespace
	ProcInst
)

// String returns the conventional XPath name of the node type.
func (t NodeType) String() string {
	switch t {
	case Root:
		return "root"
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case Attribute:
		return "attribute"
	case Namespace:
		return "namespace"
	case ProcInst:
		return "processing-instruction"
	default:
		return fmt.Sprintf("NodeType(%d)", uint8(t))
	}
}

// HasName reports whether nodes of this type carry a name. Per Section 4,
// all types besides text and comment (and the root) have a name.
func (t NodeType) HasName() bool {
	switch t {
	case Element, Attribute, Namespace, ProcInst:
		return true
	default:
		return false
	}
}
