package lang

import "strconv"

// lexer turns source text into tokens. Comments run from "//" to newline.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// next returns the next token.
func (lx *lexer) next() token {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}
	}
	c := lx.advance()
	mk := func(k tokKind) token {
		return token{kind: k, line: line, col: col}
	}
	two := func(next byte, yes, no tokKind) token {
		if lx.peekByte() == next {
			lx.advance()
			return mk(yes)
		}
		return mk(no)
	}
	switch {
	case isLetter(c):
		start := lx.pos - 1
		for lx.pos < len(lx.src) && (isLetter(lx.peekByte()) || isDigit(lx.peekByte())) {
			lx.advance()
		}
		word := lx.src[start:lx.pos]
		if k, ok := keywords[word]; ok {
			return token{kind: k, text: word, line: line, col: col}
		}
		return token{kind: tokIdent, text: word, line: line, col: col}
	case isDigit(c):
		start := lx.pos - 1
		for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		lit := lx.src[start:lx.pos]
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			fail(line, col, "integer literal %s overflows int64", lit)
		}
		return token{kind: tokInt, val: v, line: line, col: col}
	}
	switch c {
	case '(':
		return mk(tokLParen)
	case ')':
		return mk(tokRParen)
	case '{':
		return mk(tokLBrace)
	case '[':
		return mk(tokLBracket)
	case ']':
		return mk(tokRBracket)
	case '}':
		return mk(tokRBrace)
	case ',':
		return mk(tokComma)
	case ';':
		return mk(tokSemi)
	case '.':
		return mk(tokDot)
	case '+':
		return mk(tokPlus)
	case '-':
		return mk(tokMinus)
	case '*':
		return mk(tokStar)
	case '/':
		return mk(tokSlash)
	case '%':
		return mk(tokPercent)
	case '=':
		return two('=', tokEQ, tokAssign)
	case '<':
		if lx.peekByte() == '<' {
			lx.advance()
			return mk(tokShl)
		}
		return two('=', tokLE, tokLT)
	case '>':
		if lx.peekByte() == '>' {
			lx.advance()
			return mk(tokShr)
		}
		return two('=', tokGE, tokGT)
	case '!':
		return two('=', tokNE, tokBang)
	case '&':
		return two('&', tokAndAnd, tokAmp)
	case '|':
		return two('|', tokOrOr, tokPipe)
	case '^':
		return mk(tokCaret)
	}
	fail(line, col, "unexpected character %q", c)
	return token{}
}

// lexAll tokenizes the whole source, so a lex error anywhere wins over any
// parse error.
func lexAll(src string) []token {
	lx := &lexer{src: src, line: 1, col: 1}
	var out []token
	for {
		t := lx.next()
		out = append(out, t)
		if t.kind == tokEOF {
			return out
		}
	}
}
