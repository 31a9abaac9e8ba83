package lang

import "slices"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) take() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// accept takes the current token if it is of kind k.
func (p *parser) accept(k tokKind) bool {
	if p.cur().kind != k {
		return false
	}
	p.take()
	return true
}

func (p *parser) expect(k tokKind) token {
	t := p.cur()
	if t.kind != k {
		fail(t.line, t.col, "expected %v, found %v", k, t.kind)
	}
	return p.take()
}

// parseProgram parses a whole source file.
func parseProgram(src string) []*methodDecl {
	p := &parser{toks: lexAll(src)}
	var methods []*methodDecl
	for p.cur().kind != tokEOF {
		if p.cur().kind == tokClass {
			methods = append(methods, p.parseClass()...)
		} else {
			methods = append(methods, p.parseMethod())
		}
	}
	if len(methods) == 0 {
		fail(1, 1, "empty program: no methods")
	}
	return methods
}

// parseClass parses class Name { field a; ... method m() {...} ... } and
// returns its methods, named Name.m and sharing the class's fields.
func (p *parser) parseClass() []*methodDecl {
	p.expect(tokClass)
	name := p.expect(tokIdent).text
	p.expect(tokLBrace)
	var fields []string
	var methods []*methodDecl
	for !p.accept(tokRBrace) {
		switch t := p.cur(); t.kind {
		case tokField:
			p.take()
			fields = append(fields, p.expect(tokIdent).text)
			p.expect(tokSemi)
		case tokMethod, tokLocked:
			methods = append(methods, p.parseMethod())
		default:
			fail(t.line, t.col, "expected 'field' or 'method' in class body, found %v", t.kind)
		}
	}
	for _, m := range methods {
		m.className, m.name, m.fields = name, name+"."+m.name, fields
	}
	return methods
}

func (p *parser) parseMethod() *methodDecl {
	locked := p.accept(tokLocked)
	kw := p.expect(tokMethod)
	m := &methodDecl{name: p.expect(tokIdent).text, locked: locked, line: kw.line, col: kw.col}
	p.expect(tokLParen)
	if p.cur().kind != tokRParen {
		for {
			m.params = append(m.params, p.expect(tokIdent).text)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	p.expect(tokRParen)
	m.body = p.parseBlock()
	return m
}

func (p *parser) parseBlock() []stmt {
	p.expect(tokLBrace)
	var out []stmt
	for !p.accept(tokRBrace) {
		if t := p.cur(); t.kind == tokEOF {
			fail(t.line, t.col, "unterminated block")
		}
		out = append(out, p.parseStmt())
	}
	return out
}

func (p *parser) parseStmt() stmt {
	t := p.take()
	at := pos{t.line, t.col}
	var s stmt
	switch t.kind {
	case tokIf:
		st := &ifStmt{pos: at, cond: p.parseExpr(), then: p.parseBlock()}
		if p.accept(tokElse) {
			if p.cur().kind == tokIf {
				st.els = []stmt{p.parseStmt()} // else if
			} else {
				st.els = p.parseBlock()
			}
		}
		return st
	case tokWhile:
		return &whileStmt{pos: at, cond: p.parseExpr(), body: p.parseBlock()}
	case tokReturn:
		s = &returnStmt{pos: at, value: p.parseExpr()}
	case tokForward:
		s = &forwardStmt{pos: at, call: p.parseCall()}
	case tokTouch:
		st := &touchStmt{pos: at}
		for {
			st.names = append(st.names, p.expect(tokIdent).text)
			if !p.accept(tokComma) {
				break
			}
		}
		s = st
	case tokWork:
		s = &workStmt{pos: at, amount: p.parseExpr()}
	case tokState:
		// state[idx] = expr;
		p.expect(tokLBracket)
		idx := p.parseExpr()
		p.expect(tokRBracket)
		p.expect(tokAssign)
		s = &stateAssign{pos: at, idx: idx, rhs: p.parseExpr()}
	case tokIdent:
		// assignment, spawn, new or newobj
		p.expect(tokAssign)
		switch {
		case p.accept(tokNew):
			s = &newClassStmt{pos: at, name: t.text, class: p.expect(tokIdent).text}
			p.expect(tokLParen)
			p.expect(tokRParen)
		case p.accept(tokNewObj):
			p.expect(tokLParen)
			s = &newObjStmt{pos: at, name: t.text, size: p.parseExpr()}
			p.expect(tokRParen)
		case p.accept(tokSpawn):
			s = &spawnStmt{pos: at, name: t.text, call: p.parseCall()}
		default:
			s = &assignStmt{pos: at, name: t.text, rhs: p.parseExpr()}
		}
	default:
		fail(t.line, t.col, "unexpected %v at start of statement", t.kind)
	}
	p.expect(tokSemi)
	return s
}

// parseCall parses the tail that spawn and forward share,
// callee(args) on target, where callee is a method or Class.method.
func (p *parser) parseCall() call {
	c := call{callee: p.expect(tokIdent).text}
	if p.accept(tokDot) {
		c.callee += "." + p.expect(tokIdent).text
	}
	p.expect(tokLParen)
	if p.cur().kind != tokRParen {
		for {
			c.args = append(c.args, p.parseExpr())
			if !p.accept(tokComma) {
				break
			}
		}
	}
	p.expect(tokRParen)
	p.expect(tokOn)
	c.target = p.parseExpr()
	return c
}

// binaryLevels lists the binary operators from the loosest-binding level
// to the tightest; every level associates to the left.
var binaryLevels = [][]tokKind{
	{tokOrOr},
	{tokAndAnd},
	{tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE},
	{tokPlus, tokMinus, tokPipe, tokCaret},
	{tokStar, tokSlash, tokPercent, tokAmp, tokShl, tokShr},
}

func (p *parser) parseExpr() expr { return p.parseBinary(0) }

// parseBinary parses operands joined by the operators of binaryLevels[level],
// each operand an expression of the tighter levels.
func (p *parser) parseBinary(level int) expr {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	x := p.parseBinary(level + 1)
	for slices.Contains(binaryLevels[level], p.cur().kind) {
		op := p.take()
		x = &binExpr{pos: pos{op.line, op.col}, op: op.kind, x: x, y: p.parseBinary(level + 1)}
	}
	return x
}

func (p *parser) parseUnary() expr {
	t := p.cur()
	if t.kind == tokMinus || t.kind == tokBang {
		p.take()
		return &unaryExpr{pos: pos{t.line, t.col}, op: t.kind, x: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() expr {
	t := p.take()
	at := pos{t.line, t.col}
	switch t.kind {
	case tokInt:
		return &intLit{pos: at, v: t.val}
	case tokIdent:
		return &varRef{pos: at, name: t.text}
	case tokSelf:
		return &selfRef{pos: at}
	case tokState:
		p.expect(tokLBracket)
		e := &stateRef{pos: at, idx: p.parseExpr()}
		p.expect(tokRBracket)
		return e
	case tokLParen:
		e := p.parseExpr()
		p.expect(tokRParen)
		return e
	}
	fail(t.line, t.col, "unexpected %v in expression", t.kind)
	return nil
}
