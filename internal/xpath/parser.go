package xpath

import (
	"errors"
	"fmt"

	"repro/internal/axes"
)

// MaxDepth bounds how deeply a query may nest: the parentheses, function
// calls, predicates and unary minus signs open around any point of it,
// and the depth of the expression tree built from them and from chains
// of binary operators. Every pass over a tree — numbering,
// optimization, each evaluator — recurses along it, so this
// is the bound on their stacks. Hand-written queries nest a few levels;
// Experiment 2's deepest query in Table VII (|Q| = 50) is about 150.
const MaxDepth = 512

// ErrTooDeep is returned, wrapped with the offset it was met at, for a
// query nested deeper than MaxDepth.
var ErrTooDeep = errors.New("xpath: query nested too deeply")

// Parse parses an XPath 1.0 query into Section 5's unabbreviated normal
// form in one pass: the parser pulls tokens from the scanner as it needs
// them and builds each node in normal form — abbreviations expanded,
// numeric predicates [e] as [position() = e], other non-boolean
// predicates and the operands of and, or and not() wrapped in
// boolean(·). The tree is then numbered (number.go). A variable
// reference is refused at its $: the paper's queries are variable-free
// (Section 5). A query nested deeper than MaxDepth is refused with
// ErrTooDeep; any other error, lexical ones included, is met where the
// parser reaches it.
func Parse(src string) (Expr, error) {
	p := parser{src: src}
	p.nxt = p.scan(tokEOF)
	p.advance()
	e, _, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after complete expression", p.tok)
	}
	return number(e), nil
}

// MustParse parses a query known to be valid; it panics on error.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// parser is a recursive-descent parser over a scanner (lexer.go). It
// holds the current token and the one after it, which is all the
// lookahead the grammar needs. Every parse method returns, with the tree
// it built, that tree's depth; open counts the constructs entered on the
// way down. Both are held to MaxDepth.
type parser struct {
	src      string
	off      int    // where the scanner reads the token after nxt
	tok, nxt token  // the current token and the next one
	open     int    // parentheses, calls, predicates and minus signs open here
	steps    []Step // the steps of the paths being parsed (parseRelativeInto)
}

// advance makes the next token current and scans the one after it. The
// scanner stops for good at the end of the query and at a lexical error.
func (p *parser) advance() {
	p.tok = p.nxt
	if p.nxt.kind != tokEOF && p.nxt.kind != tokError {
		p.nxt = p.scan(p.nxt.kind)
	}
}

// next consumes the current token and returns it.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF && t.kind != tokError {
		p.advance()
	}
	return t
}

func (p *parser) accept(k tokenKind) bool {
	if p.tok.kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, what string) error {
	if !p.accept(k) {
		return p.errorf("expected %s, found %s", what, p.tok)
	}
	return nil
}

// errorf reports a parse error at the current token — the scanner's
// message when that token is a lexical error.
func (p *parser) errorf(format string, args ...any) error {
	if p.tok.kind == tokError {
		return errors.New(p.tok.text)
	}
	return fmt.Errorf("xpath: parse %q: offset %d: %s", p.src, p.tok.pos,
		fmt.Sprintf(format, args...))
}

// tooDeep is ErrTooDeep at the current token. It does not quote the
// query, which may be megabytes of parentheses.
func (p *parser) tooDeep() error {
	return fmt.Errorf("%w: more than %d levels at offset %d", ErrTooDeep, MaxDepth, p.tok.pos)
}

// over returns the depth of a node whose deepest child has depth d.
func (p *parser) over(d int) (int, error) {
	if d >= MaxDepth {
		return 0, p.tooDeep()
	}
	return d + 1, nil
}

// Expr ::= OrExpr, parsed as one more open construct.
func (p *parser) parseExpr() (Expr, int, error) {
	if p.open >= MaxDepth {
		return nil, 0, p.tooDeep()
	}
	p.open++
	e, d, err := p.parseBinary(1)
	p.open--
	return e, d, err
}

// binaryOps gives each token of an operator of OrExpr down to
// MultiplicativeExpr the operator and its precedence, from 1 (or, the
// loosest) to 6 (*, div and mod); every other token has precedence 0.
var binaryOps = [1 << 8]struct {
	op   BinOp
	prec int
}{
	tokOr: {OpOr, 1}, tokAnd: {OpAnd, 2}, tokEq: {OpEq, 3}, tokNeq: {OpNeq, 3},
	tokLt: {OpLt, 4}, tokLe: {OpLe, 4}, tokGt: {OpGt, 4}, tokGe: {OpGe, 4},
	tokPlus: {OpAdd, 5}, tokMinus: {OpSub, 5},
	tokMul: {OpMul, 6}, tokDiv: {OpDiv, 6}, tokMod: {OpMod, 6},
}

// parseBinary parses a unary expression followed by binary operators of
// precedence at least prec, each with its right operand, left-associated
// (precedence climbing). The operands of and and or are converted to
// boolean explicitly, as Section 5 has every type conversion.
func (p *parser) parseBinary(prec int) (Expr, int, error) {
	left, depth, err := p.parseUnary()
	for err == nil {
		o := binaryOps[p.tok.kind]
		if o.prec < prec { // or no operator at all: precedence 0
			return left, depth, nil
		}
		p.next()
		var right Expr
		var rd int
		if right, rd, err = p.parseBinary(o.prec + 1); err == nil {
			if o.op == OpAnd || o.op == OpOr {
				left, right = ensureBoolean(left), ensureBoolean(right)
			}
			left = &Binary{Op: o.op, Left: left, Right: right}
			depth, err = p.over(max(depth, rd))
		}
	}
	return nil, 0, err
}

// UnaryExpr ::= UnionExpr | '-' UnaryExpr
func (p *parser) parseUnary() (Expr, int, error) {
	if !p.accept(tokMinus) {
		return p.parseUnion()
	}
	if p.open >= MaxDepth {
		return nil, 0, p.tooDeep()
	}
	p.open++
	x, d, err := p.parseUnary()
	p.open--
	if err == nil {
		d, err = p.over(d)
	}
	if err != nil {
		return nil, 0, err
	}
	return &Negate{X: x}, d, nil
}

// UnionExpr ::= PathExpr ('|' PathExpr)*
func (p *parser) parseUnion() (Expr, int, error) {
	left, depth, err := p.parsePathExpr()
	for err == nil && p.accept(tokPipe) {
		var right Expr
		var rd int
		if right, rd, err = p.parsePathExpr(); err != nil {
			break
		}
		if left.Type() != TypeNodeSet || right.Type() != TypeNodeSet {
			return nil, 0, p.errorf("operands of | must be node sets")
		}
		left = &Binary{Op: OpUnion, Left: left, Right: right}
		depth, err = p.over(max(depth, rd))
	}
	if err != nil {
		return nil, 0, err
	}
	return left, depth, nil
}

// PathExpr ::= LocationPath
//
//	| FilterExpr (('/' | '//') RelativeLocationPath)?
func (p *parser) parsePathExpr() (Expr, int, error) {
	if !p.startsFilterExpr() {
		return p.parseLocationPath()
	}
	fe, fd, err := p.parseFilterExpr()
	if err != nil {
		return nil, 0, err
	}
	if p.tok.kind != tokSlash && p.tok.kind != tokSlash2 {
		return fe, fd, nil
	}
	if fe.Type() != TypeNodeSet {
		return nil, 0, p.errorf("expression before / must be a node set")
	}
	path := &Path{Filter: fe}
	base := len(p.steps)
	if p.next().kind == tokSlash2 {
		p.steps = append(p.steps, descendantOrSelf)
	}
	sd, err := p.parseRelativeInto(path, base)
	if err == nil {
		fd, err = p.over(max(fd, sd))
	}
	if err != nil {
		return nil, 0, err
	}
	return path, fd, nil
}

// startsFilterExpr distinguishes a FilterExpr head from a location path.
// FilterExpr starts with: VariableReference, '(', Literal, Number, or a
// FunctionCall that is not a node-type test. A VariableReference's $
// counts, so that parsePrimary refuses it by name.
func (p *parser) startsFilterExpr() bool {
	switch p.tok.kind {
	case tokDollar, tokLParen, tokLiteral, tokNumber:
		return true
	case tokName:
		if p.nxt.kind != tokLParen {
			return false
		}
		switch p.tok.text {
		case "node", "text", "comment", "processing-instruction":
			return false // node-type test, part of a step
		}
		return true
	default:
		return false
	}
}

// parseFilterExpr ::= PrimaryExpr Predicate*
func (p *parser) parseFilterExpr() (Expr, int, error) {
	prim, depth, err := p.parsePrimary()
	if err != nil {
		return nil, 0, err
	}
	preds, pd, err := p.parsePredicates()
	if err != nil {
		return nil, 0, err
	}
	if len(preds) == 0 {
		return prim, depth, nil
	}
	if prim.Type() != TypeNodeSet {
		return nil, 0, p.errorf("predicates require a node-set expression")
	}
	if depth, err = p.over(max(depth, pd)); err != nil {
		return nil, 0, err
	}
	return &FilterExpr{Primary: prim, Preds: preds}, depth, nil
}

func (p *parser) parsePrimary() (Expr, int, error) {
	switch t := p.tok; t.kind {
	case tokDollar:
		return nil, 0, p.errorf("variable references are not supported")
	case tokLParen:
		p.next()
		e, d, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, 0, err
		}
		return e, d, nil
	case tokLiteral:
		p.next()
		return &Literal{Val: t.text}, 1, nil
	case tokNumber:
		p.next()
		return &Number{Val: t.num}, 1, nil
	case tokName:
		name := p.next().text
		if err := p.expect(tokLParen, "( after function name"); err != nil {
			return nil, 0, err
		}
		var args []Expr
		depth := 0
		if p.tok.kind != tokRParen {
			for {
				a, d, err := p.parseExpr()
				if err != nil {
					return nil, 0, err
				}
				args, depth = append(args, a), max(depth, d)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, 0, err
		}
		if err := checkCall(name, args); err != nil {
			return nil, 0, p.errorf("%s", err)
		}
		if name == "not" {
			args[0] = ensureBoolean(args[0])
		}
		depth, err := p.over(depth)
		if err != nil {
			return nil, 0, err
		}
		return &Call{Name: name, Args: args}, depth, nil
	default:
		return nil, 0, p.errorf("unexpected %s", t)
	}
}

// parsePredicates parses Predicate*, each in normal form (predicate),
// and returns the deepest one's depth.
func (p *parser) parsePredicates() ([]Expr, int, error) {
	var preds []Expr
	depth := 0
	for p.accept(tokLBracket) {
		e, d, err := p.parseExpr()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expect(tokRBracket, "]"); err != nil {
			return nil, 0, err
		}
		preds, depth = append(preds, predicate(e)), max(depth, d)
	}
	return preds, depth, nil
}

// predicate returns the predicate [e] in normal form: [position() = e]
// if e is a number, [boolean(e)] if a node set or a string.
func predicate(e Expr) Expr {
	switch e.Type() {
	case TypeNumber:
		return &Binary{Op: OpEq, Left: &Call{Name: "position"}, Right: e}
	case TypeNodeSet, TypeString:
		return &Call{Name: "boolean", Args: []Expr{e}}
	}
	return e
}

// ensureBoolean wraps a non-boolean expression in boolean(·).
func ensureBoolean(e Expr) Expr {
	if e.Type() == TypeBoolean {
		return e
	}
	return &Call{Name: "boolean", Args: []Expr{e}}
}

// parseLocationPath ::= '/' RelativeLocationPath?
//
//	| '//' RelativeLocationPath
//	| RelativeLocationPath
func (p *parser) parseLocationPath() (Expr, int, error) {
	path := &Path{}
	base := len(p.steps)
	switch p.tok.kind {
	case tokSlash:
		p.next()
		path.Absolute = true
		if !p.startsStep() {
			return path, 1, nil // bare "/"
		}
	case tokSlash2:
		p.next()
		path.Absolute = true
		p.steps = append(p.steps, descendantOrSelf)
	}
	d, err := p.parseRelativeInto(path, base)
	if err == nil {
		d, err = p.over(d)
	}
	if err != nil {
		return nil, 0, err
	}
	return path, d, nil
}

// parseRelativeInto parses a RelativeLocationPath, gives path the steps
// pushed on p.steps since base — a leading // expanded, then the path's
// own — and returns the depth of its deepest predicate.
//
// The steps of the paths being parsed stand on one stack, a nested
// path's above its enclosing step's, and a finished path takes its own
// off in two allocations, however many steps it has: the steps and the
// pointers to them.
func (p *parser) parseRelativeInto(path *Path, base int) (int, error) {
	depth := 0
	for {
		d, err := p.parseStep()
		if err != nil {
			return 0, err
		}
		depth = max(depth, d)
		if p.accept(tokSlash) {
			continue
		}
		if p.accept(tokSlash2) {
			p.steps = append(p.steps, descendantOrSelf)
			continue
		}
		steps := make([]Step, len(p.steps)-base)
		copy(steps, p.steps[base:])
		p.steps = p.steps[:base]
		path.Steps = make([]*Step, len(steps))
		for i := range steps {
			path.Steps[i] = &steps[i]
		}
		return depth, nil
	}
}

func (p *parser) startsStep() bool {
	switch p.tok.kind {
	case tokName, tokStar, tokAt, tokDot, tokDotDot:
		return true
	default:
		return false
	}
}

// parseStep ::= '.' | '..' | AxisSpecifier NodeTest Predicate*
//
// It pushes the step on p.steps and returns its predicates' depth.
func (p *parser) parseStep() (depth int, err error) {
	step := Step{Axis: axes.Child}
	switch {
	case p.accept(tokDot):
		step.Axis, step.Test.Kind = axes.Self, TestNode
	case p.accept(tokDotDot):
		step.Axis, step.Test.Kind = axes.Parent, TestNode
	default:
		if p.accept(tokAt) {
			step.Axis = axes.AttributeAxis
		} else if p.tok.kind == tokName && p.nxt.kind == tokAxisSep {
			axisName := p.next().text
			p.next() // ::
			a, ok := axes.ByName(axisName)
			if !ok {
				return 0, p.errorf("unknown axis %q", axisName)
			}
			step.Axis = a
		}
		if step.Test, err = p.parseNodeTest(); err != nil {
			return 0, err
		}
		if step.Preds, depth, err = p.parsePredicates(); err != nil {
			return 0, err
		}
	}
	p.steps = append(p.steps, step)
	return depth, nil
}

func (p *parser) parseNodeTest() (NodeTest, error) {
	switch t := p.tok; t.kind {
	case tokStar:
		p.next()
		return NodeTest{Kind: TestName, Name: "*"}, nil
	case tokName:
		name := p.next().text
		if !p.accept(tokLParen) {
			return NodeTest{Kind: TestName, Name: name}, nil
		}
		// A node-type test.
		test := NodeTest{Kind: TestPI}
		switch name {
		case "node":
			test.Kind = TestNode
		case "text":
			test.Kind = TestText
		case "comment":
			test.Kind = TestComment
		case "processing-instruction":
			if p.tok.kind == tokLiteral {
				test.Name = p.next().text
			}
		default:
			return NodeTest{}, p.errorf("unknown node type %q", name)
		}
		return test, p.expect(tokRParen, ")")
	default:
		return NodeTest{}, p.errorf("expected node test, found %s", t)
	}
}

// descendantOrSelf is the expansion of '//':
// /descendant-or-self::node()/.
var descendantOrSelf = Step{Axis: axes.DescendantOrSelf, Test: NodeTest{Kind: TestNode}}
