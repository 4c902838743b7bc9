package cypher

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a syntax error with source position.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("cypher: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse lexes and parses a Cypher script. It accepts the subset the
// generation prompts elicit: CREATE statements with comma-separated
// pattern lists and multi-hop chains, and MERGE read as CREATE.
// Statements may be separated by semicolons or just newlines.
func Parse(src string) (*Script, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseScript()
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind TokenKind) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, p.errf("expected %s, found %s %q", kind, p.cur().Kind, p.cur().Text)
	}
	return p.next(), nil
}

// keyword reports whether the current token is the given case-insensitive
// keyword identifier.
func (p *parser) keyword(word string) bool {
	t := p.cur()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, word)
}

func (p *parser) parseScript() (*Script, error) {
	s := &Script{}
	for {
		// Skip statement separators.
		for p.cur().Kind == TokSemicolon {
			p.next()
		}
		if p.cur().Kind == TokEOF {
			break
		}
		// MERGE appears occasionally in LLM output; it parses as CREATE,
		// which is semantically close enough for pseudo-graph building
		// (the executor deduplicates nodes by name anyway).
		if !p.keyword("CREATE") && !p.keyword("MERGE") {
			return nil, p.errf("expected CREATE or MERGE, found %q", p.cur().Text)
		}
		p.next()
		st, err := p.parseCreate()
		if err != nil {
			return nil, err
		}
		s.Statements = append(s.Statements, st)
	}
	if len(s.Statements) == 0 {
		return nil, &ParseError{Line: 1, Col: 1, Msg: "empty script"}
	}
	return s, nil
}

func (p *parser) parseCreate() (*CreateStmt, error) {
	st := &CreateStmt{}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		st.Patterns = append(st.Patterns, pat)
		if p.cur().Kind != TokComma {
			break
		}
		p.next()
	}
	return st, nil
}

// parsePattern parses (node)(rel(node))* chains.
func (p *parser) parsePattern() (Pattern, error) {
	var pat Pattern
	n, err := p.parseNode()
	if err != nil {
		return pat, err
	}
	pat.Nodes = append(pat.Nodes, n)
	for p.cur().Kind == TokDash || p.cur().Kind == TokArrowHead {
		r, err := p.parseRel()
		if err != nil {
			return pat, err
		}
		n, err := p.parseNode()
		if err != nil {
			return pat, err
		}
		pat.Rels = append(pat.Rels, r)
		pat.Nodes = append(pat.Nodes, n)
	}
	return pat, nil
}

// parseNode parses (var:Label:Label2 {k: v, ...}) — every part optional.
func (p *parser) parseNode() (NodePattern, error) {
	var n NodePattern
	if _, err := p.expect(TokLParen); err != nil {
		return n, err
	}
	if p.cur().Kind == TokIdent {
		n.Var = p.next().Text
	}
	for p.cur().Kind == TokColon {
		p.next()
		lbl, err := p.expect(TokIdent)
		if err != nil {
			return n, err
		}
		n.Labels = append(n.Labels, lbl.Text)
	}
	if p.cur().Kind == TokLBrace {
		props, err := p.parseProps()
		if err != nil {
			return n, err
		}
		n.Props = props
	}
	if _, err := p.expect(TokRParen); err != nil {
		return n, err
	}
	return n, nil
}

// parseRel parses -[var:TYPE {props}]-> in all three directions.
func (p *parser) parseRel() (RelPattern, error) {
	var r RelPattern
	switch p.cur().Kind {
	case TokArrowHead: // <-[...]-
		p.next()
		r.Dir = DirLeft
	case TokDash:
		p.next()
	default:
		return r, p.errf("expected relationship, found %q", p.cur().Text)
	}
	if p.cur().Kind == TokLBracket {
		p.next()
		if p.cur().Kind == TokIdent {
			r.Var = p.next().Text
		}
		if p.cur().Kind == TokColon {
			p.next()
			t, err := p.expect(TokIdent)
			if err != nil {
				return r, err
			}
			r.Type = t.Text
		}
		if p.cur().Kind == TokLBrace {
			props, err := p.parseProps()
			if err != nil {
				return r, err
			}
			r.Props = props
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return r, err
		}
	}
	// Closing side of the relationship.
	switch {
	case r.Dir == DirLeft:
		if _, err := p.expect(TokDash); err != nil {
			return r, err
		}
	case p.cur().Kind == TokArrowTail:
		p.next()
		r.Dir = DirRight
	case p.cur().Kind == TokDash:
		p.next()
		r.Dir = DirNone
	default:
		return r, p.errf("expected '->' or '-' to close relationship, found %q", p.cur().Text)
	}
	return r, nil
}

// parseProps parses {key: literal, ...}. Keys may be identifiers or quoted
// strings (LLMs emit both).
func (p *parser) parseProps() ([]Property, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var props []Property
	for {
		if p.cur().Kind == TokRBrace {
			p.next()
			return props, nil
		}
		var key string
		switch p.cur().Kind {
		case TokIdent, TokString:
			key = p.next().Text
		default:
			return nil, p.errf("expected property key, found %q", p.cur().Text)
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		props = append(props, Property{Key: key, Value: lit})
		if p.cur().Kind == TokComma {
			p.next()
			continue
		}
		if p.cur().Kind != TokRBrace {
			return nil, p.errf("expected ',' or '}' in property map, found %q", p.cur().Text)
		}
	}
}

func (p *parser) parseLiteral() (Literal, error) {
	t := p.cur()
	switch t.Kind {
	case TokString:
		p.next()
		return Literal{Kind: LitString, Str: t.Text}, nil
	case TokNumber:
		p.next()
		text := strings.ReplaceAll(t.Text, "_", "")
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Literal{}, p.errf("bad float literal %q", t.Text)
			}
			return Literal{Kind: LitFloat, Flt: f}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Literal{}, p.errf("bad int literal %q", t.Text)
		}
		return Literal{Kind: LitInt, Int: i}, nil
	case TokIdent:
		switch strings.ToLower(t.Text) {
		case "true":
			p.next()
			return Literal{Kind: LitBool, Bool: true}, nil
		case "false":
			p.next()
			return Literal{Kind: LitBool, Bool: false}, nil
		case "null":
			p.next()
			return Literal{Kind: LitString, Str: ""}, nil
		}
		// Bare-word value (unquoted string) — technically invalid Cypher,
		// but frequent in LLM output; accept a single identifier.
		p.next()
		return Literal{Kind: LitString, Str: t.Text}, nil
	default:
		return Literal{}, p.errf("expected literal, found %s", t.Kind)
	}
}
