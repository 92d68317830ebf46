package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// parseReference is the parser this package had before the hand-written
// scanner: encoding/xml's RawToken loop feeding the Builder, kept here
// as the differential reference (TestParseMatchesReference,
// FuzzXMLParse). With merge false it is the old loop, line for line.
// With merge true it has the scanner's one intended divergence: adjacent
// CharData tokens — encoding/xml hands out character data and each
// CDATA section separately — used to become sibling text nodes, each
// kept or dropped as whitespace on its own, which XPath 1.0 §5.7 rules
// out; merged, they are collected in pending and become one text node,
// decided on whole, and an empty one is no node at all.
func parseReference(r io.Reader, opts ParseOptions, merge bool) (*Document, error) {
	b := NewBuilder()
	if opts.IDAttributes != nil {
		b.IDAttributes = map[string]bool{}
		for _, a := range opts.IDAttributes {
			b.IDAttributes[a] = true
		}
	}
	dec := xml.NewDecoder(r)
	var open []string
	sawElement := false
	var pending []string
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		s := strings.Join(pending, "")
		pending = pending[:0]
		if len(open) == 0 {
			// Whitespace between the prolog and the document
			// element is not part of the tree.
			if strings.TrimSpace(s) == "" {
				return nil
			}
			return fmt.Errorf("xmltree: parse: text outside document element")
		}
		if !opts.KeepWhitespaceText && strings.TrimSpace(s) == "" || merge && s == "" {
			return nil
		}
		b.Text(s)
		return nil
	}
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		if t, ok := tok.(xml.CharData); ok {
			pending = append(pending, string(t))
			if !merge {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Tokens that put nothing in the tree leave the text run open.
		switch t := tok.(type) {
		case xml.Comment:
			if opts.DropComments {
				continue
			}
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // the XML declaration is not a node
			}
		case xml.Directive:
			continue // DOCTYPE etc.; the data model does not represent these.
		}
		if err := flush(); err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.StartElement(rawName(t.Name))
			for _, a := range t.Attr {
				n := rawName(a.Name)
				if n == "xmlns" {
					b.NamespaceNode("", a.Value)
				} else if strings.HasPrefix(n, "xmlns:") {
					b.NamespaceNode(strings.TrimPrefix(n, "xmlns:"), a.Value)
				} else {
					b.Attribute(n, a.Value)
				}
			}
			open = append(open, rawName(t.Name))
			sawElement = true
		case xml.EndElement:
			name := rawName(t.Name)
			if len(open) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unexpected </%s>", name)
			}
			if open[len(open)-1] != name {
				return nil, fmt.Errorf("xmltree: parse: </%s> closes <%s>", name, open[len(open)-1])
			}
			open = open[:len(open)-1]
			b.EndElement()
		case xml.Comment:
			b.Comment(string(t))
		case xml.ProcInst:
			b.ProcInst(t.Target, string(t.Inst))
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("xmltree: parse: %d unclosed element(s)", len(open))
	}
	if !sawElement {
		return nil, fmt.Errorf("xmltree: parse: no document element")
	}
	return b.Done()
}

func rawName(n xml.Name) string {
	if n.Space != "" {
		return n.Space + ":" + n.Local
	}
	return n.Local
}
