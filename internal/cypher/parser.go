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

// parse lexes and parses a Cypher script. It accepts the subset the
// generation prompts elicit: CREATE statements with comma-separated
// pattern lists and multi-hop chains, and MERGE read as CREATE.
// Statements may be separated by semicolons or just newlines.
func parse(src string) (script, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseScript()
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errf("expected %s, found %s %q", kind, p.cur().kind, p.cur().text)
	}
	return p.next(), nil
}

// keyword reports whether the current token is the given case-insensitive
// keyword identifier.
func (p *parser) keyword(word string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, word)
}

func (p *parser) parseScript() (script, error) {
	var s script
	for {
		// Skip statement separators.
		for p.cur().kind == tokSemicolon {
			p.next()
		}
		if p.cur().kind == tokEOF {
			break
		}
		// MERGE appears occasionally in LLM output; it parses as CREATE,
		// which is semantically close enough for pseudo-graph building
		// (the executor deduplicates nodes by name anyway).
		if !p.keyword("CREATE") && !p.keyword("MERGE") {
			return nil, p.errf("expected CREATE or MERGE, found %q", p.cur().text)
		}
		p.next()
		st, err := p.parseCreate()
		if err != nil {
			return nil, err
		}
		s = append(s, st)
	}
	if len(s) == 0 {
		return nil, &ParseError{Line: 1, Col: 1, Msg: "empty script"}
	}
	return s, nil
}

func (p *parser) parseCreate() ([]pattern, error) {
	var pats []pattern
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	return pats, nil
}

// parsePattern parses (node)(rel(node))* chains.
func (p *parser) parsePattern() (pattern, error) {
	var pat pattern
	n, err := p.parseNode()
	if err != nil {
		return pat, err
	}
	pat.nodes = append(pat.nodes, n)
	for p.cur().kind == tokDash || p.cur().kind == tokArrowHead {
		r, err := p.parseRel()
		if err != nil {
			return pat, err
		}
		n, err := p.parseNode()
		if err != nil {
			return pat, err
		}
		pat.rels = append(pat.rels, r)
		pat.nodes = append(pat.nodes, n)
	}
	return pat, nil
}

// parseNode parses (var:Label:Label2 {k: v, ...}) — every part optional.
func (p *parser) parseNode() (nodePattern, error) {
	var n nodePattern
	if _, err := p.expect(tokLParen); err != nil {
		return n, err
	}
	if p.cur().kind == tokIdent {
		n.variable = p.next().text
	}
	for p.cur().kind == tokColon {
		p.next()
		lbl, err := p.expect(tokIdent)
		if err != nil {
			return n, err
		}
		n.labels = append(n.labels, lbl.text)
	}
	if p.cur().kind == tokLBrace {
		props, err := p.parseProps()
		if err != nil {
			return n, err
		}
		n.props = props
	}
	if _, err := p.expect(tokRParen); err != nil {
		return n, err
	}
	return n, nil
}

// parseRel parses -[var:TYPE {props}]-> in all three directions. The
// variable and the properties are checked for syntax and dropped.
func (p *parser) parseRel() (relPattern, error) {
	var r relPattern
	switch p.cur().kind {
	case tokArrowHead: // <-[...]-
		p.next()
		r.left = true
	case tokDash:
		p.next()
	default:
		return r, p.errf("expected relationship, found %q", p.cur().text)
	}
	if p.cur().kind == tokLBracket {
		p.next()
		if p.cur().kind == tokIdent {
			p.next()
		}
		if p.cur().kind == tokColon {
			p.next()
			t, err := p.expect(tokIdent)
			if err != nil {
				return r, err
			}
			r.relType = t.text
		}
		if p.cur().kind == tokLBrace {
			if _, err := p.parseProps(); err != nil {
				return r, err
			}
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return r, err
		}
	}
	// Closing side of the relationship.
	switch {
	case r.left:
		if _, err := p.expect(tokDash); err != nil {
			return r, err
		}
	case p.cur().kind == tokArrowTail, p.cur().kind == tokDash:
		p.next()
	default:
		return r, p.errf("expected '->' or '-' to close relationship, found %q", p.cur().text)
	}
	return r, nil
}

// parseProps parses {key: literal, ...}. Keys may be identifiers or quoted
// strings (LLMs emit both); an empty key is an error, since it would
// decode to a triple without a relation.
func (p *parser) parseProps() ([]property, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	var props []property
	for {
		if p.cur().kind == tokRBrace {
			p.next()
			return props, nil
		}
		var key string
		switch p.cur().kind {
		case tokIdent, tokString:
			if p.cur().text == "" {
				return nil, p.errf("empty property key")
			}
			key = p.next().text
		default:
			return nil, p.errf("expected property key, found %q", p.cur().text)
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		props = append(props, property{key, v})
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		if p.cur().kind != tokRBrace {
			return nil, p.errf("expected ',' or '}' in property map, found %q", p.cur().text)
		}
	}
}

// parseLiteral parses a property value and renders it as its triples will
// carry it: a float with strconv's shortest 'g' form, an int in decimal, a
// bool as true or false, and null as the empty string.
func (p *parser) parseLiteral() (value, error) {
	t := p.cur()
	switch t.kind {
	case tokString:
		p.next()
		return value{t.text, true}, nil
	case tokNumber:
		p.next()
		text := strings.ReplaceAll(t.text, "_", "")
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return value{}, p.errf("bad float literal %q", t.text)
			}
			return value{strconv.FormatFloat(f, 'g', -1, 64), false}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return value{}, p.errf("bad int literal %q", t.text)
		}
		return value{strconv.FormatInt(i, 10), false}, nil
	case tokIdent:
		p.next()
		switch word := strings.ToLower(t.text); word {
		case "true", "false":
			return value{word, false}, nil
		case "null":
			return value{"", true}, nil
		}
		// Bare-word value (unquoted string) — technically invalid Cypher,
		// but frequent in LLM output; accept a single identifier.
		return value{t.text, true}, nil
	default:
		return value{}, p.errf("expected literal, found %s", t.kind)
	}
}
