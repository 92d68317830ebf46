package xpath

import (
	"fmt"

	"repro/internal/axes"
)

// Parse parses an XPath 1.0 query into a normalized expression tree:
// abbreviations are expanded, numeric predicates become positional
// comparisons, and non-boolean predicates are wrapped in boolean(·)
// (Section 5's unabbreviated form). The tree is numbered (number.go).
func Parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after complete expression", p.peek())
	}
	return number(normalize(e)), nil
}

// MustParse parses a query known to be valid; it panics on error.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokenKind) bool {
	if p.peek().kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, what string) error {
	if !p.accept(k) {
		return p.errorf("expected %s, found %s", what, p.peek())
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("xpath: parse %q: offset %d: %s", p.src, p.peek().pos,
		fmt.Sprintf(format, args...))
}

// Expr ::= OrExpr
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOr) {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.accept(tokAnd) {
		right, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseEquality() (Expr, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().kind {
		case tokEq:
			op = OpEq
		case tokNeq:
			op = OpNeq
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseRelational() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().kind {
		case tokLt:
			op = OpLt
		case tokLe:
			op = OpLe
		case tokGt:
			op = OpGt
		case tokGe:
			op = OpGe
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.peek().kind {
		case tokMul:
			op = OpMul
		case tokDiv:
			op = OpDiv
		case tokMod:
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

// UnaryExpr ::= UnionExpr | '-' UnaryExpr
func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Negate{X: x}, nil
	}
	return p.parseUnion()
}

// UnionExpr ::= PathExpr ('|' PathExpr)*
func (p *parser) parseUnion() (Expr, error) {
	left, err := p.parsePathExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		right, err := p.parsePathExpr()
		if err != nil {
			return nil, err
		}
		if left.Type() != TypeNodeSet || right.Type() != TypeNodeSet {
			return nil, p.errorf("operands of | must be node sets")
		}
		left = &Binary{Op: OpUnion, Left: left, Right: right}
	}
	return left, nil
}

// PathExpr ::= LocationPath
//
//	| FilterExpr (('/' | '//') RelativeLocationPath)?
func (p *parser) parsePathExpr() (Expr, error) {
	if p.startsFilterExpr() {
		fe, err := p.parseFilterExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokSlash && p.peek().kind != tokSlash2 {
			return fe, nil
		}
		if fe.Type() != TypeNodeSet {
			return nil, p.errorf("expression before / must be a node set")
		}
		path := &Path{Filter: fe}
		if err := p.parseStepsInto(path); err != nil {
			return nil, err
		}
		return path, nil
	}
	return p.parseLocationPath()
}

// startsFilterExpr distinguishes a FilterExpr head from a location path.
// FilterExpr starts with: VariableReference, '(', Literal, Number, or a
// FunctionCall that is not a node-type test.
func (p *parser) startsFilterExpr() bool {
	switch p.peek().kind {
	case tokDollar, tokLParen, tokLiteral, tokNumber:
		return true
	case tokName:
		if p.peek2().kind != tokLParen {
			return false
		}
		switch p.peek().text {
		case "node", "text", "comment", "processing-instruction":
			return false // node-type test, part of a step
		}
		return true
	default:
		return false
	}
}

// parseFilterExpr ::= PrimaryExpr Predicate*
func (p *parser) parseFilterExpr() (Expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	var preds []Expr
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
	if len(preds) == 0 {
		return prim, nil
	}
	if prim.Type() != TypeNodeSet {
		return nil, p.errorf("predicates require a node-set expression")
	}
	return &FilterExpr{Primary: prim, Preds: preds}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.peek(); t.kind {
	case tokDollar:
		p.next()
		if p.peek().kind != tokName {
			return nil, p.errorf("expected variable name after $")
		}
		return &VarRef{Name: p.next().text}, nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case tokLiteral:
		p.next()
		return &Literal{Val: t.text}, nil
	case tokNumber:
		p.next()
		return &Number{Val: t.num}, nil
	case tokName:
		name := p.next().text
		if err := p.expect(tokLParen, "( after function name"); err != nil {
			return nil, err
		}
		var args []Expr
		if p.peek().kind != tokRParen {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		if err := checkCall(name, args); err != nil {
			return nil, p.errorf("%s", err)
		}
		return &Call{Name: name, Args: args}, nil
	default:
		return nil, p.errorf("unexpected %s", t)
	}
}

func (p *parser) parsePredicate() (Expr, error) {
	if err := p.expect(tokLBracket, "["); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRBracket, "]"); err != nil {
		return nil, err
	}
	return e, nil
}

// parseLocationPath ::= '/' RelativeLocationPath?
//
//	| '//' RelativeLocationPath
//	| RelativeLocationPath
func (p *parser) parseLocationPath() (Expr, error) {
	path := &Path{}
	switch p.peek().kind {
	case tokSlash:
		p.next()
		path.Absolute = true
		if !p.startsStep() {
			return path, nil // bare "/"
		}
		if err := p.parseRelativeInto(path); err != nil {
			return nil, err
		}
	case tokSlash2:
		p.next()
		path.Absolute = true
		path.Steps = append(path.Steps, descendantOrSelfStep())
		if err := p.parseRelativeInto(path); err != nil {
			return nil, err
		}
	default:
		if err := p.parseRelativeInto(path); err != nil {
			return nil, err
		}
	}
	return path, nil
}

// parseStepsInto consumes ('/' | '//') RelativeLocationPath after a
// filter-expression head.
func (p *parser) parseStepsInto(path *Path) error {
	if p.accept(tokSlash2) {
		path.Steps = append(path.Steps, descendantOrSelfStep())
	} else if err := p.expect(tokSlash, "/"); err != nil {
		return err
	}
	return p.parseRelativeInto(path)
}

func (p *parser) parseRelativeInto(path *Path) error {
	for {
		step, err := p.parseStep()
		if err != nil {
			return err
		}
		path.Steps = append(path.Steps, step)
		if p.accept(tokSlash) {
			continue
		}
		if p.accept(tokSlash2) {
			path.Steps = append(path.Steps, descendantOrSelfStep())
			continue
		}
		return nil
	}
}

func (p *parser) startsStep() bool {
	switch p.peek().kind {
	case tokName, tokStar, tokAt, tokDot, tokDotDot:
		return true
	default:
		return false
	}
}

// parseStep ::= '.' | '..' | AxisSpecifier NodeTest Predicate*
func (p *parser) parseStep() (*Step, error) {
	switch p.peek().kind {
	case tokDot:
		p.next()
		return &Step{Axis: axes.Self, Test: NodeTest{Kind: TestNode}}, nil
	case tokDotDot:
		p.next()
		return &Step{Axis: axes.Parent, Test: NodeTest{Kind: TestNode}}, nil
	}
	step := &Step{Axis: axes.Child}
	if p.accept(tokAt) {
		step.Axis = axes.AttributeAxis
	} else if p.peek().kind == tokName && p.peek2().kind == tokAxisSep {
		axisName := p.next().text
		p.next() // ::
		a, ok := axes.ByName(axisName)
		if !ok {
			return nil, p.errorf("unknown axis %q", axisName)
		}
		step.Axis = a
	}
	test, err := p.parseNodeTest()
	if err != nil {
		return nil, err
	}
	step.Test = test
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func (p *parser) parseNodeTest() (NodeTest, error) {
	switch t := p.peek(); t.kind {
	case tokStar:
		p.next()
		return NodeTest{Kind: TestName, Name: "*"}, nil
	case tokName:
		name := p.next().text
		if p.peek().kind == tokLParen {
			// Node-type test.
			p.next()
			switch name {
			case "node":
				if err := p.expect(tokRParen, ")"); err != nil {
					return NodeTest{}, err
				}
				return NodeTest{Kind: TestNode}, nil
			case "text":
				if err := p.expect(tokRParen, ")"); err != nil {
					return NodeTest{}, err
				}
				return NodeTest{Kind: TestText}, nil
			case "comment":
				if err := p.expect(tokRParen, ")"); err != nil {
					return NodeTest{}, err
				}
				return NodeTest{Kind: TestComment}, nil
			case "processing-instruction":
				target := ""
				if p.peek().kind == tokLiteral {
					target = p.next().text
				}
				if err := p.expect(tokRParen, ")"); err != nil {
					return NodeTest{}, err
				}
				return NodeTest{Kind: TestPI, Name: target}, nil
			default:
				return NodeTest{}, p.errorf("unknown node type %q", name)
			}
		}
		return NodeTest{Kind: TestName, Name: name}, nil
	default:
		return NodeTest{}, p.errorf("expected node test, found %s", t)
	}
}

// descendantOrSelfStep is the expansion of '//':
// /descendant-or-self::node()/.
func descendantOrSelfStep() *Step {
	return &Step{Axis: axes.DescendantOrSelf, Test: NodeTest{Kind: TestNode}}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
