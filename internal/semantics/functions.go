package semantics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Context is an XPath evaluation context ⟨x, k, n⟩: context node, context
// position, context size (Section 5).
type Context struct {
	Node xmltree.NodeID
	Pos  int
	Size int
}

// callFunction evaluates a core-library function for a context, given
// already-evaluated argument values. It implements every function row of
// Table II plus the number and string functions the paper elides
// (floor, ceiling, round, concat, starts-with, contains, substring,
// substring-before, substring-after, string-length, normalize-space,
// translate, lang) and the name functions its footnote 6 skips
// (local-name, namespace-uri, name).
//
// Location paths, position() and last() are *not* handled here: their
// semantics depend on the evaluation strategy and live in the engines.
// position() and last() are included for engines that resolve them
// uniformly via the context.
func callFunction(d *xmltree.Document, name string, ctx Context, args []Value) (Value, error) {
	switch name {
	case "position":
		return Number(float64(ctx.Pos)), nil
	case "last":
		return Number(float64(ctx.Size)), nil
	case "count":
		if err := wantNodeSet(name, args, 0); err != nil {
			return Value{}, err
		}
		return Number(float64(len(args[0].Set))), nil
	case "sum":
		if err := wantNodeSet(name, args, 0); err != nil {
			return Value{}, err
		}
		s := 0.0
		for _, n := range args[0].Set {
			s += StringToNumber(d.StringValue(n))
		}
		return Number(s), nil
	case "id":
		// F[[id: nset→nset]](S) = ⋃ deref_ids(strval(n));
		// F[[id: str→nset]](s) = deref_ids(s).
		// Every member's referents go into one buffer, sorted once.
		if args[0].Kind == xpath.TypeNodeSet {
			var out xmltree.NodeSet
			for _, n := range args[0].Set {
				out = d.AppendIDs(out, d.StringValue(n))
			}
			return NodeSet(out.Normalized()), nil
		}
		return NodeSet(d.DerefIDs(ToString(d, args[0]))), nil
	case "local-name", "name", "namespace-uri":
		target := ctx.Node
		if len(args) == 1 {
			if err := wantNodeSet(name, args, 0); err != nil {
				return Value{}, err
			}
			if args[0].Set.IsEmpty() {
				return String(""), nil
			}
			target = args[0].Set.First()
		}
		full := d.Name(target)
		switch name {
		case "name":
			return String(full), nil
		case "local-name":
			if i := strings.LastIndexByte(full, ':'); i >= 0 {
				return String(full[i+1:]), nil
			}
			return String(full), nil
		default: // namespace-uri: prefix lookup is out of scope (§4);
			// return the prefix's declared URI when an in-scope
			// namespace node declares it, else "".
			i := strings.IndexByte(full, ':')
			if i < 0 {
				return String(""), nil
			}
			prefix := full[:i]
			for n := target; n != xmltree.NilNode; n = d.Parent(n) {
				for c := d.FirstChild(n); c != xmltree.NilNode; c = d.NextSibling(c) {
					if d.Type(c) == xmltree.Namespace && d.Name(c) == prefix {
						return String(d.Data(c)), nil
					}
				}
			}
			return String(""), nil
		}
	case "string":
		if len(args) == 0 {
			return String(d.StringValue(ctx.Node)), nil
		}
		return String(ToString(d, args[0])), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(ToString(d, a))
		}
		return String(b.String()), nil
	case "starts-with":
		return Boolean(strings.HasPrefix(ToString(d, args[0]), ToString(d, args[1]))), nil
	case "contains":
		return Boolean(strings.Contains(ToString(d, args[0]), ToString(d, args[1]))), nil
	case "substring-before":
		s, sub := ToString(d, args[0]), ToString(d, args[1])
		if i := strings.Index(s, sub); i >= 0 {
			return String(s[:i]), nil
		}
		return String(""), nil
	case "substring-after":
		s, sub := ToString(d, args[0]), ToString(d, args[1])
		if i := strings.Index(s, sub); i >= 0 {
			return String(s[i+len(sub):]), nil
		}
		return String(""), nil
	case "substring":
		return String(substring(d, args)), nil
	case "string-length":
		s := ""
		if len(args) == 0 {
			s = d.StringValue(ctx.Node)
		} else {
			s = ToString(d, args[0])
		}
		return Number(float64(len([]rune(s)))), nil
	case "normalize-space":
		s := ""
		if len(args) == 0 {
			s = d.StringValue(ctx.Node)
		} else {
			s = ToString(d, args[0])
		}
		return String(normalizeSpace(s)), nil
	case "translate":
		return String(translate(ToString(d, args[0]), ToString(d, args[1]), ToString(d, args[2]))), nil
	case "boolean":
		return Boolean(ToBoolean(args[0])), nil
	case "not":
		return Boolean(!ToBoolean(args[0])), nil
	case "true":
		return Boolean(true), nil
	case "false":
		return Boolean(false), nil
	case "lang":
		want := strings.ToLower(ToString(d, args[0]))
		have := strings.ToLower(d.Lang(ctx.Node))
		if have == "" {
			return Boolean(false), nil
		}
		return Boolean(have == want || strings.HasPrefix(have, want+"-")), nil
	case "number":
		if len(args) == 0 {
			return Number(StringToNumber(d.StringValue(ctx.Node))), nil
		}
		return Number(ToNumber(d, args[0])), nil
	case "floor":
		return Number(math.Floor(ToNumber(d, args[0]))), nil
	case "ceiling":
		return Number(math.Ceil(ToNumber(d, args[0]))), nil
	case "round":
		return Number(round(ToNumber(d, args[0]))), nil
	case "first-of-type", "last-of-type", "first-of-any", "last-of-any":
		return Boolean(siblingBoundary(d, name, ctx.Node)), nil
	default:
		return Value{}, fmt.Errorf("semantics: unknown function %s()", name)
	}
}

// siblingBoundary evaluates the XSLT Patterns'98 unary predicates of
// Table VI for one node: whether it is the first/last among its
// element siblings (of-any) or among its same-named element siblings
// (of-type). Non-element nodes never satisfy the -of-type forms; the
// -of-any forms consider element siblings only, matching the '98
// draft's pattern semantics.
func siblingBoundary(d *xmltree.Document, name string, n xmltree.NodeID) bool {
	if n == xmltree.NilNode || d.Type(n) != xmltree.Element {
		return false
	}
	forward := name == "first-of-type" || name == "first-of-any"
	byType := name == "first-of-type" || name == "last-of-type"
	step := d.PrevSibling
	if !forward {
		step = d.NextSibling
	}
	for s := step(n); s != xmltree.NilNode; s = step(s) {
		if d.Type(s) != xmltree.Element {
			continue
		}
		if !byType || d.Name(s) == d.Name(n) {
			return false
		}
	}
	return true
}

func wantNodeSet(name string, args []Value, i int) error {
	if args[i].Kind != xpath.TypeNodeSet {
		return fmt.Errorf("semantics: %s() requires a node-set argument, got %v", name, args[i].Kind)
	}
	return nil
}

// round implements XPath 1.0 round() (§4.4): the integer closest to v,
// of two the one nearer +∞; NaN, ±∞ and integers (every double of
// magnitude 2⁵² or more is one) come back unchanged, and every v in
// [−0.5, −0] rounds to −0. Floor(v + 0.5) gets the last three wrong:
// the sum rounds 0.49999999999999994 up to 1 and moves odd integers
// above 2⁵², and −0.5 + 0.5 is +0. v − Floor(v) is exact.
func round(v float64) float64 {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0) || v == math.Trunc(v):
		return v
	case v < 0 && v >= -0.5:
		return math.Copysign(0, -1)
	}
	f := math.Floor(v)
	if v-f >= 0.5 {
		return f + 1
	}
	return f
}

// substring implements the two- and three-argument XPath substring()
// with its rounding rules: characters whose position p satisfies
// p >= round(start) and, with a length, p < round(start) + round(length).
// Positions are 1-based; NaN bounds yield the empty string.
func substring(d *xmltree.Document, args []Value) string {
	runes := []rune(ToString(d, args[0]))
	start := round(ToNumber(d, args[1]))
	if math.IsNaN(start) {
		return ""
	}
	end := math.Inf(1)
	if len(args) == 3 {
		l := round(ToNumber(d, args[2]))
		if math.IsNaN(l) {
			return ""
		}
		end = start + l
	}
	var b strings.Builder
	for i, r := range runes {
		p := float64(i + 1)
		if p >= start && p < end {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// translate implements translate(s, from, to): occurrences of the i-th
// rune of from are replaced by the i-th rune of to, or removed when to is
// shorter.
func translate(s, from, to string) string {
	fromR, toR := []rune(from), []rune(to)
	m := make(map[rune]rune, len(fromR))
	drop := make(map[rune]bool)
	for i, r := range fromR {
		if _, dup := m[r]; dup || drop[r] {
			continue // first occurrence wins
		}
		if i < len(toR) {
			m[r] = toR[i]
		} else {
			drop[r] = true
		}
	}
	var b strings.Builder
	for _, r := range s {
		if drop[r] {
			continue
		}
		if rep, ok := m[r]; ok {
			b.WriteRune(rep)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// normalizeSpace is normalize-space (§4.2): s with leading and trailing
// white space stripped and every inner run of it replaced by one space —
// white space by XML's S production (xmltree.IsSpace), so U+00A0 is
// kept as text.
func normalizeSpace(s string) string {
	var b strings.Builder
	for f, rest := xmltree.Field(s); f != ""; f, rest = xmltree.Field(rest) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f)
	}
	return b.String()
}
