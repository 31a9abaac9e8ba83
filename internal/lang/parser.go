package lang

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

func (p *parser) expect(k tokKind) (token, *Error) {
	t := p.cur()
	if t.kind != k {
		return t, errf(t.line, t.col, "expected %v, found %v", k, t.kind)
	}
	return p.take(), nil
}

// parseProgram parses a whole source file.
func parseProgram(src string) ([]*methodDecl, *Error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var methods []*methodDecl
	for p.cur().kind != tokEOF {
		if p.cur().kind == tokClass {
			c, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			for _, m := range c.methods {
				m.className = c.name
				m.name = c.name + "." + m.name
				m.fields = c.fields
				methods = append(methods, m)
			}
			continue
		}
		m, err := p.parseMethod()
		if err != nil {
			return nil, err
		}
		methods = append(methods, m)
	}
	if len(methods) == 0 {
		return nil, errf(1, 1, "empty program: no methods")
	}
	return methods, nil
}

// parseClass parses: class Name { field a; ... method m() {...} ... }
func (p *parser) parseClass() (*classDecl, *Error) {
	if _, err := p.expect(tokClass); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	c := &classDecl{name: name.text}
	for p.cur().kind != tokRBrace {
		switch p.cur().kind {
		case tokField:
			p.take()
			fn, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			c.fields = append(c.fields, fn.text)
		case tokMethod, tokLocked:
			m, err := p.parseMethod()
			if err != nil {
				return nil, err
			}
			c.methods = append(c.methods, m)
		default:
			t := p.cur()
			return nil, errf(t.line, t.col, "expected 'field' or 'method' in class body, found %v", t.kind)
		}
	}
	p.take() // }
	return c, nil
}

func (p *parser) parseMethod() (*methodDecl, *Error) {
	locked := false
	if p.cur().kind == tokLocked {
		p.take()
		locked = true
	}
	kw, err := p.expect(tokMethod)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	m := &methodDecl{name: name.text, locked: locked, line: kw.line, col: kw.col}
	if p.cur().kind != tokRParen {
		for {
			pn, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			m.params = append(m.params, pn.text)
			if p.cur().kind != tokComma {
				break
			}
			p.take()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, perr := p.parseBlock()
	if perr != nil {
		return nil, perr
	}
	m.body = body
	return m, nil
}

func (p *parser) parseBlock() ([]stmt, *Error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var out []stmt
	for p.cur().kind != tokRBrace {
		if p.cur().kind == tokEOF {
			t := p.cur()
			return nil, errf(t.line, t.col, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.take() // }
	return out, nil
}

func (p *parser) parseStmt() (stmt, *Error) {
	t := p.cur()
	switch t.kind {
	case tokReturn:
		p.take()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &returnStmt{pos: pos{t.line, t.col}, value: e}, nil

	case tokForward:
		p.take()
		calleeName, err := p.parseCalleeName()
		if err != nil {
			return nil, err
		}
		args, perr := p.parseArgs()
		if perr != nil {
			return nil, perr
		}
		if _, err := p.expect(tokOn); err != nil {
			return nil, err
		}
		target, perr := p.parseExpr()
		if perr != nil {
			return nil, perr
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &forwardStmt{pos: pos{t.line, t.col}, callee: calleeName, args: args, target: target}, nil

	case tokTouch:
		p.take()
		var names []string
		for {
			n, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			names = append(names, n.text)
			if p.cur().kind != tokComma {
				break
			}
			p.take()
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &touchStmt{pos: pos{t.line, t.col}, names: names}, nil

	case tokWork:
		p.take()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &workStmt{pos: pos{t.line, t.col}, amount: e}, nil

	case tokIf:
		p.take()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []stmt
		if p.cur().kind == tokElse {
			p.take()
			if p.cur().kind == tokIf {
				s, err := p.parseStmt() // else if
				if err != nil {
					return nil, err
				}
				els = []stmt{s}
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return &ifStmt{pos: pos{t.line, t.col}, cond: cond, then: then, els: els}, nil

	case tokWhile:
		p.take()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &whileStmt{pos: pos{t.line, t.col}, cond: cond, body: body}, nil

	case tokState:
		// state[idx] = expr;
		p.take()
		if _, err := p.expect(tokLBracket); err != nil {
			return nil, err
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &stateAssign{pos: pos{t.line, t.col}, idx: idx, rhs: rhs}, nil

	case tokIdent:
		// assignment, spawn or newobj
		name := p.take()
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		if p.cur().kind == tokNew {
			p.take()
			cls, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			return &newClassStmt{pos: pos{name.line, name.col}, name: name.text, class: cls.text}, nil
		}
		if p.cur().kind == tokNewObj {
			p.take()
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			size, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			return &newObjStmt{pos: pos{name.line, name.col}, name: name.text, size: size}, nil
		}
		if p.cur().kind == tokSpawn {
			p.take()
			calleeName, err := p.parseCalleeName()
			if err != nil {
				return nil, err
			}
			args, perr := p.parseArgs()
			if perr != nil {
				return nil, perr
			}
			if _, err := p.expect(tokOn); err != nil {
				return nil, err
			}
			target, perr := p.parseExpr()
			if perr != nil {
				return nil, perr
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			return &spawnStmt{pos: pos{name.line, name.col}, name: name.text,
				callee: calleeName, args: args, target: target}, nil
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &assignStmt{pos: pos{name.line, name.col}, name: name.text, rhs: rhs}, nil
	}
	return nil, errf(t.line, t.col, "unexpected %v at start of statement", t.kind)
}

// parseCalleeName parses IDENT or Class '.' method.
func (p *parser) parseCalleeName() (string, *Error) {
	id, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	if p.cur().kind == tokDot {
		p.take()
		m, err := p.expect(tokIdent)
		if err != nil {
			return "", err
		}
		return id.text + "." + m.text, nil
	}
	return id.text, nil
}

func (p *parser) parseArgs() ([]expr, *Error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []expr
	if p.cur().kind != tokRParen {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.cur().kind != tokComma {
				break
			}
			p.take()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

// Expression parsing: precedence climbing.
// || < && < comparisons < additive < multiplicative < unary < primary.

func (p *parser) parseExpr() (expr, *Error) { return p.parseOr() }

func (p *parser) parseOr() (expr, *Error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOrOr {
		op := p.take()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &binExpr{pos: pos{op.line, op.col}, op: tokOrOr, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (expr, *Error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAndAnd {
		op := p.take()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &binExpr{pos: pos{op.line, op.col}, op: tokAndAnd, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseCmp() (expr, *Error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().kind
		if k != tokLT && k != tokLE && k != tokGT && k != tokGE && k != tokEQ && k != tokNE {
			return x, nil
		}
		op := p.take()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		x = &binExpr{pos: pos{op.line, op.col}, op: k, x: x, y: y}
	}
}

func (p *parser) parseAdd() (expr, *Error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPlus || p.cur().kind == tokMinus ||
		p.cur().kind == tokPipe || p.cur().kind == tokCaret {
		op := p.take()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &binExpr{pos: pos{op.line, op.col}, op: op.kind, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseMul() (expr, *Error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokStar || p.cur().kind == tokSlash || p.cur().kind == tokPercent ||
		p.cur().kind == tokAmp || p.cur().kind == tokShl || p.cur().kind == tokShr {
		op := p.take()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &binExpr{pos: pos{op.line, op.col}, op: op.kind, x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (expr, *Error) {
	t := p.cur()
	if t.kind == tokMinus || t.kind == tokBang {
		p.take()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{pos: pos{t.line, t.col}, op: t.kind, x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr, *Error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.take()
		return &intLit{pos: pos{t.line, t.col}, v: t.val}, nil
	case tokIdent:
		p.take()
		return &varRef{pos: pos{t.line, t.col}, name: t.text}, nil
	case tokSelf:
		p.take()
		return &selfRef{pos: pos{t.line, t.col}}, nil
	case tokState:
		p.take()
		if _, err := p.expect(tokLBracket); err != nil {
			return nil, err
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		return &stateRef{pos: pos{t.line, t.col}, idx: idx}, nil
	case tokLParen:
		p.take()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.line, t.col, "unexpected %v in expression", t.kind)
}
