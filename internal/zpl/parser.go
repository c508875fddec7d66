package zpl

// Parser is a recursive-descent parser with one token of lookahead plus a
// small pushback stack (used to disambiguate reduction prefixes like
// `max<<` and border prefixes like `[north of R]` from ordinary
// expressions).
type Parser struct {
	lex    *Lexer
	tok    Token
	pushed []Token
	slots  int // scan blocks and assignments numbered so far
}

// Parse parses a whole program.
func Parse(src string) (*Program, error) {
	p := &Parser{lex: NewLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for {
		switch p.tok.Kind {
		case KwConst, KwRegion, KwDirection, KwVar:
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			prog.Decls = append(prog.Decls, d)
		case EOF:
			prog.slots = p.slots
			return prog, nil
		default:
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			prog.Stmts = append(prog.Stmts, s)
		}
	}
}

func (p *Parser) next() error {
	if n := len(p.pushed); n > 0 {
		p.tok = p.pushed[n-1]
		p.pushed = p.pushed[:n-1]
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// pushBack makes tok the current token and defers the present one: after
// pushBack(a) then pushBack(b), the stream reads b, a, <old current>, ....
func (p *Parser) pushBack(tok Token) {
	p.pushed = append(p.pushed, p.tok)
	p.tok = tok
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	if err := p.next(); err != nil {
		return Token{}, err
	}
	return t, nil
}

func (p *Parser) accept(k Kind) (bool, error) {
	if p.tok.Kind != k {
		return false, nil
	}
	return true, p.next()
}

// --- Declarations ---

func (p *Parser) parseDecl() (Decl, error) {
	switch p.tok.Kind {
	case KwConst:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Eq); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ConstDecl{Name: name.Text, Value: v, Pos: pos}, nil

	case KwRegion:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Eq); err != nil {
			return nil, err
		}
		// Border form: `region X = north of R;`.
		if p.tok.Kind == IDENT {
			dir, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.tok.Kind != IDENT || p.tok.Text != "of" {
				return nil, errf(p.tok.Pos, "expected 'of' in border region, found %s", p.tok)
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			base, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
			return &RegionDecl{Name: name.Text, OfDir: dir.Text, OfBase: base.Text, Pos: pos}, nil
		}
		ranges, err := p.parseBracketRanges()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &RegionDecl{Name: name.Text, Ranges: ranges, Pos: pos}, nil

	case KwDirection:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Eq); err != nil {
			return nil, err
		}
		comps, err := p.parseVectorLiteral()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &DirectionDecl{Name: name.Text, Comps: comps, Pos: pos}, nil

	case KwVar:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		var names []string
		for {
			id, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			names = append(names, id.Text)
			ok, err := p.accept(Comma)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		// `[R] double` for arrays, bare `double` for scalars.
		if p.tok.Kind == LBracket {
			if err := p.next(); err != nil {
				return nil, err
			}
			regName, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			if _, err := p.expect(KwDouble); err != nil {
				return nil, err
			}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
			return &VarDecl{Names: names, Region: regName.Text, Pos: pos}, nil
		}
		if _, err := p.expect(KwDouble); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ScalarVarDecl{Names: names, Pos: pos}, nil
	}
	return nil, errf(p.tok.Pos, "expected declaration, found %s", p.tok)
}

// parseBracketRanges parses `[ r1, r2, ... ]` where each r is `e` or
// `e..e`.
func (p *Parser) parseBracketRanges() ([]RangeExpr, error) {
	if _, err := p.expect(LBracket); err != nil {
		return nil, err
	}
	var out []RangeExpr
	for {
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		r := RangeExpr{Lo: lo, Hi: lo}
		ok, err := p.accept(DotDot)
		if err != nil {
			return nil, err
		}
		if ok {
			hi, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Hi = hi
		}
		out = append(out, r)
		ok, err = p.accept(Comma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if _, err := p.expect(RBracket); err != nil {
		return nil, err
	}
	return out, nil
}

// parseVectorLiteral parses `[ e1, e2, ... ]`.
func (p *Parser) parseVectorLiteral() ([]Expr, error) {
	if _, err := p.expect(LBracket); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		ok, err := p.accept(Comma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if _, err := p.expect(RBracket); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Statements ---

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.tok.Kind {
	case LBracket:
		pos := p.tok.Pos
		// Border prefix `[d of R]`: two identifiers joined by 'of'.
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == IDENT {
			first := p.tok
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind == IDENT && p.tok.Text == "of" {
				if err := p.next(); err != nil {
					return nil, err
				}
				base, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(RBracket); err != nil {
					return nil, err
				}
				body, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				return &RegionStmt{OfDir: first.Text, OfBase: base.Text, Body: body, Pos: pos}, nil
			}
			p.pushBack(first)
		}
		p.pushBack(Token{Kind: LBracket, Pos: pos})
		// Lookahead ambiguity: `[R]` vs `[1..n, ...]`. Parse the bracket
		// contents as ranges; a single identifier range with Lo==Hi and an
		// identifier expression is treated as a region name.
		ranges, err := p.parseBracketRanges()
		if err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		rs := &RegionStmt{Ranges: ranges, Body: body, Pos: pos}
		if len(ranges) == 1 && ranges[0].Lo == ranges[0].Hi {
			if ref, ok := ranges[0].Lo.(*NameRef); ok && !ref.Primed && ref.ShiftName == "" && ref.ShiftComps == nil {
				rs = &RegionStmt{Name: ref.Name, Body: body, Pos: pos}
			}
		}
		return rs, nil

	case KwScan:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		body, err := p.parseStmtsUntilEnd()
		if err != nil {
			return nil, err
		}
		p.slots++
		return &ScanStmt{Body: body, Pos: pos, slot: p.slots - 1}, nil

	case KwBegin:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		body, err := p.parseStmtsUntilEnd()
		if err != nil {
			return nil, err
		}
		return &BeginStmt{Body: body, Pos: pos}, nil

	case KwFor:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		v, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Assign); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		down := false
		switch p.tok.Kind {
		case KwTo:
		case KwDownto:
			down = true
		default:
			return nil, errf(p.tok.Pos, "expected to or downto, found %s", p.tok)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		to, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwDo); err != nil {
			return nil, err
		}
		body, err := p.parseStmtsUntilEnd()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Var: v.Text, From: from, To: to, Down: down, Body: body, Pos: pos}, nil

	case KwIf:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwThen); err != nil {
			return nil, err
		}
		var thenStmts, elseStmts []Stmt
		for p.tok.Kind != KwEnd && p.tok.Kind != KwElse {
			if p.tok.Kind == EOF {
				return nil, errf(p.tok.Pos, "unexpected end of file in if")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			thenStmts = append(thenStmts, s)
		}
		if ok, err := p.accept(KwElse); err != nil {
			return nil, err
		} else if ok {
			for p.tok.Kind != KwEnd {
				if p.tok.Kind == EOF {
					return nil, errf(p.tok.Pos, "unexpected end of file in else")
				}
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				elseStmts = append(elseStmts, s)
			}
		}
		if err := p.next(); err != nil { // consume end
			return nil, err
		}
		if _, err := p.accept(Semi); err != nil {
			return nil, err
		}
		return &IfStmt{Cond: cond, Then: thenStmts, Else: elseStmts, Pos: pos}, nil

	case KwRepeat:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		var body []Stmt
		for p.tok.Kind != KwUntil {
			if p.tok.Kind == EOF {
				return nil, errf(p.tok.Pos, "unexpected end of file: missing until")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			body = append(body, s)
		}
		if err := p.next(); err != nil { // consume until
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &RepeatStmt{Body: body, Cond: cond, Pos: pos}, nil

	case KwWriteln:
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		var args []Expr
		if ok, err := p.accept(LParen); err != nil {
			return nil, err
		} else if ok {
			if p.tok.Kind != RParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					ok, err := p.accept(Comma)
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &WritelnStmt{Args: args, Pos: pos}, nil

	case IDENT:
		pos := p.tok.Pos
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(Assign); err != nil {
			return nil, err
		}
		reduce, err := p.parseReducePrefix()
		if err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		p.slots++
		return &AssignStmt{Name: name, Reduce: reduce, RHS: rhs, Pos: pos, slot: p.slots - 1}, nil
	}
	return nil, errf(p.tok.Pos, "expected statement, found %s", p.tok)
}

// parseReducePrefix recognizes `+<<`, `max<<`, or `min<<` at the start of
// an assignment's right-hand side, returning "" when absent.
func (p *Parser) parseReducePrefix() (string, error) {
	var op string
	switch {
	case p.tok.Kind == Plus:
		op = "+"
	case p.tok.Kind == IDENT && (p.tok.Text == "max" || p.tok.Text == "min"):
		op = p.tok.Text
	default:
		return "", nil
	}
	first := p.tok
	if err := p.next(); err != nil {
		return "", err
	}
	if p.tok.Kind == LtLt {
		return op, p.next()
	}
	// Not a reduction after all (e.g. `x := max(a, b);` or unary plus):
	// undo the consumption.
	p.pushBack(first)
	return "", nil
}

// parseStmtsUntilEnd parses statements up to `end;` (the semicolon after
// end is optional before another `end` or EOF, matching common usage).
func (p *Parser) parseStmtsUntilEnd() ([]Stmt, error) {
	var body []Stmt
	for p.tok.Kind != KwEnd {
		if p.tok.Kind == EOF {
			return nil, errf(p.tok.Pos, "unexpected end of file: missing end")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	if err := p.next(); err != nil { // consume `end`
		return nil, err
	}
	if _, err := p.accept(Semi); err != nil {
		return nil, err
	}
	return body, nil
}

// --- Conditions ---

// parseCond parses `or`-separated conjunctions of (optionally negated)
// relational comparisons: addExpr relop addExpr.
func (p *Parser) parseCond() (Cond, error) {
	l, err := p.parseCondAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == KwOr {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseCondAnd()
		if err != nil {
			return nil, err
		}
		l = &OrCond{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseCondAnd() (Cond, error) {
	l, err := p.parseCondNot()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == KwAnd {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseCondNot()
		if err != nil {
			return nil, err
		}
		l = &AndCond{L: l, R: r}
	}
	return l, nil
}

// parseCondNot parses `not ( cond )` — the parentheses are required so
// that `(expr)` in a comparison stays unambiguous — or a bare comparison.
func (p *Parser) parseCondNot() (Cond, error) {
	if p.tok.Kind == KwNot {
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		x, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &NotCond{X: x}, nil
	}
	return p.parseRel()
}

func (p *Parser) parseRel() (Cond, error) {
	pos := p.tok.Pos
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	op := p.tok.Kind
	switch op {
	case Lt, Le, Gt, Ge, Eq, NotEq:
	default:
		return nil, errf(p.tok.Pos, "expected comparison operator, found %s", p.tok)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &RelCond{Op: op, L: l, R: r, Pos: pos}, nil
}

// --- Expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseAdd() }

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == Plus || p.tok.Kind == Minus {
		op := p.tok.Kind
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == Star || p.tok.Kind == Slash {
		op := p.tok.Kind
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.tok.Kind == Minus {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{X: x, Pos: pos}, nil
	}
	if p.tok.Kind == Plus {
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case NUMBER:
		t := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		return &NumLit{V: t.Num, Pos: t.Pos}, nil

	case STRING:
		t := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		return &StrLit{S: t.Text, Pos: t.Pos}, nil

	case LParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil

	case IDENT:
		t := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		// Function call?
		if p.tok.Kind == LParen {
			if err := p.next(); err != nil {
				return nil, err
			}
			var args []Expr
			if p.tok.Kind != RParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					ok, err := p.accept(Comma)
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			return &CallExpr{Fn: t.Text, Args: args, Pos: t.Pos}, nil
		}
		ref := &NameRef{Name: t.Text, Pos: t.Pos}
		if ok, err := p.accept(Prime); err != nil {
			return nil, err
		} else if ok {
			ref.Primed = true
		}
		if ok, err := p.accept(At); err != nil {
			return nil, err
		} else if ok {
			switch p.tok.Kind {
			case IDENT:
				ref.ShiftName = p.tok.Text
				if err := p.next(); err != nil {
					return nil, err
				}
			case LBracket:
				comps, err := p.parseVectorLiteral()
				if err != nil {
					return nil, err
				}
				ref.ShiftComps = comps
			default:
				return nil, errf(p.tok.Pos, "expected direction after @, found %s", p.tok)
			}
		}
		return ref, nil
	}
	return nil, errf(p.tok.Pos, "expected expression, found %s", p.tok)
}
