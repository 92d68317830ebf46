package xmltree

import "unsafe"

// mapBytes is about what one entry of a map keyed by a string costs:
// the key's header, the value and the table's share around them. The
// keys themselves alias the document's text.
const mapBytes = 32

// Bytes returns the bytes of heap the document retains: its text (the
// source it aliases and the side buffer), the node columns, the name
// table, the structural index, and each table built on first use once
// it exists — a posting list's value and rank columns, the ID table,
// the ref relation and the string-value memo's table (not the strings
// it points to). The pools of evaluation scratch and arenas are not
// counted: they are the evaluations' memory, not the document's. Safe
// for concurrent use.
func (d *Document) Bytes() int64 { return d.fixed + d.lazy.Load() }

// columnBytes is what Done leaves: the text, the columns and the index.
func (d *Document) columnBytes() int64 {
	ix := &d.idx
	n := int64(unsafe.Sizeof(*d)) + int64(len(d.src)+len(d.side)) + int64(cap(d.types))
	n += 4 * int64(cap(d.parent)+cap(d.nextSibling)+cap(d.label)+cap(d.dataOff)+cap(d.dataLen)+
		cap(ix.subtreeEnd)+cap(ix.contentBefore))
	n += int64(unsafe.Sizeof("")) * int64(cap(d.names)+cap(d.otherNames))
	n += mapBytes * int64(len(ix.label)+len(d.idAttrs))
	n += int64(unsafe.Sizeof(posting{})) * int64(cap(ix.named))
	for l := range ix.named {
		n += 4 * int64(len(ix.named[l].set))
	}
	return n
}
