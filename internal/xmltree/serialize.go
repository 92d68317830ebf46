package xmltree

import (
	"io"
	"strings"
)

// WriteXML serializes the document back to XML. The output is a
// well-formed document reproducing the tree's structure; it is intended
// for debugging and for materializing synthetic workloads on disk.
func (d *Document) WriteXML(w io.Writer) error {
	sw := &stickyWriter{w: w}
	for c := d.FirstChild(0); c != NilNode; c = d.nextSibling[c] {
		d.writeNode(sw, c)
	}
	return sw.err
}

// XMLString serializes the document to a string.
func (d *Document) XMLString() string {
	var b strings.Builder
	_ = d.WriteXML(&b)
	return b.String()
}

type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) str(v string) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, v)
	}
}

func (d *Document) writeNode(w *stickyWriter, id NodeID) {
	switch d.types[id] {
	case Element:
		w.str("<")
		w.str(d.Name(id))
		hasContent := false
		for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
			switch d.types[c] {
			case Attribute:
				w.str(" ")
				w.str(d.Name(c))
				w.str(`="`)
				w.str(escapeAttr(d.Data(c)))
				w.str(`"`)
			case Namespace:
				w.str(" xmlns")
				if d.Name(c) != "" {
					w.str(":")
					w.str(d.Name(c))
				}
				w.str(`="`)
				w.str(escapeAttr(d.Data(c)))
				w.str(`"`)
			default:
				hasContent = true
			}
		}
		if !hasContent {
			w.str("/>")
			return
		}
		w.str(">")
		for c := d.FirstChild(id); c != NilNode; c = d.nextSibling[c] {
			if !d.IsAttrOrNS(c) {
				d.writeNode(w, c)
			}
		}
		w.str("</")
		w.str(d.Name(id))
		w.str(">")
	case Text:
		w.str(escapeText(d.Data(id)))
	case Comment:
		w.str("<!--")
		w.str(d.Data(id))
		w.str("-->")
	case ProcInst:
		w.str("<?")
		w.str(d.Name(id))
		if d.Data(id) != "" {
			w.str(" ")
			w.str(d.Data(id))
		}
		w.str("?>")
	}
}

// Built once: a Replacer's tables cost more than a text node's escaping.
var (
	escapeText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace
	escapeAttr = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;").Replace
)
