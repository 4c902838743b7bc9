// Package cypher is the Cypher-subset engine that stands in for Neo4j in
// the Pseudo-Graph Generation step (§III-A). The subset covers what the
// paper's prompts elicit from the LLM (Figs. 2–3): CREATE statements over
// node patterns with labels and property maps, relationship patterns with
// typed arrows, comma-separated pattern lists and line comments. MERGE is
// read as CREATE; any other statement (MATCH included) is a parse error.
// The paper never queries the pseudo-graph it builds, so neither does this
// engine: a script's only output is its triples.
//
// The path is lexer (lexer.go) → parser (parser.go, producing the AST in
// ast.go) → executor (exec.go), which binds the script's nodes and emits
// their triples. Decode and Validate are the package's whole surface.
package cypher

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokColon
	tokComma
	tokDash      // -
	tokArrowTail // ->
	tokArrowHead // <-
	tokSemicolon
	tokIllegal // any character outside the grammar
)

// String names the token kind for error messages.
func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokColon:
		return "':'"
	case tokComma:
		return "','"
	case tokDash:
		return "'-'"
	case tokArrowTail:
		return "'->'"
	case tokArrowHead:
		return "'<-'"
	case tokSemicolon:
		return "';'"
	case tokIllegal:
		return "illegal character"
	default:
		return "unknown token"
	}
}

// token is one lexical unit with its source position (1-based line/column).
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// LexError reports a lexical error with position.
type LexError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *LexError) Error() string {
	return fmt.Sprintf("cypher: lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lex tokenises src. Line comments (// ...) and whitespace are skipped.
// Both single- and double-quoted strings are accepted (LLM output mixes
// them); backslash escapes \" \' \\ \n \t are honoured. Only an
// unterminated string or backtick identifier is a lex error: any other
// character outside the grammar becomes a tokIllegal token.
func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += k
	}
	emit := func(kind tokenKind, text string, l, c int) {
		toks = append(toks, token{kind: kind, text: text, line: l, col: c})
	}
	for i < n {
		c := src[i]
		startLine, startCol := line, col
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '(':
			emit(tokLParen, "(", startLine, startCol)
			advance(1)
		case c == ')':
			emit(tokRParen, ")", startLine, startCol)
			advance(1)
		case c == '{':
			emit(tokLBrace, "{", startLine, startCol)
			advance(1)
		case c == '}':
			emit(tokRBrace, "}", startLine, startCol)
			advance(1)
		case c == '[':
			emit(tokLBracket, "[", startLine, startCol)
			advance(1)
		case c == ']':
			emit(tokRBracket, "]", startLine, startCol)
			advance(1)
		case c == ':':
			emit(tokColon, ":", startLine, startCol)
			advance(1)
		case c == ',':
			emit(tokComma, ",", startLine, startCol)
			advance(1)
		case c == ';':
			emit(tokSemicolon, ";", startLine, startCol)
			advance(1)
		case c == '-':
			if i+1 < n && src[i+1] == '>' {
				emit(tokArrowTail, "->", startLine, startCol)
				advance(2)
			} else if i+1 < n && (src[i+1] >= '0' && src[i+1] <= '9') {
				// Negative number literal.
				j := i + 1
				for j < n && isNumChar(src[j]) {
					j++
				}
				emit(tokNumber, src[i:j], startLine, startCol)
				advance(j - i)
			} else {
				emit(tokDash, "-", startLine, startCol)
				advance(1)
			}
		case c == '<' && i+1 < n && src[i+1] == '-':
			emit(tokArrowHead, "<-", startLine, startCol)
			advance(2)
		case c == '\'' || c == '"':
			quote := c
			var b strings.Builder
			j := i + 1
			closed := false
			consumed := 1
			for j < n {
				ch := src[j]
				if ch == '\\' && j+1 < n {
					esc := src[j+1]
					switch esc {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					default:
						b.WriteByte(esc)
					}
					j += 2
					consumed += 2
					continue
				}
				if ch == quote {
					closed = true
					consumed++
					j++
					break
				}
				b.WriteByte(ch)
				j++
				consumed++
			}
			if !closed {
				return nil, &LexError{startLine, startCol, "unterminated string literal"}
			}
			emit(tokString, b.String(), startLine, startCol)
			advance(consumed)
		case c >= '0' && c <= '9':
			j := i
			for j < n && isNumChar(src[j]) {
				j++
			}
			emit(tokNumber, src[i:j], startLine, startCol)
			advance(j - i)
		case isIdentStart(src[i:]):
			j := i
			for j < n {
				r, size := utf8.DecodeRuneInString(src[j:])
				if !isIdentChar(r) {
					break
				}
				j += size
			}
			emit(tokIdent, src[i:j], startLine, startCol)
			advance(j - i)
		case c == '`':
			// Backtick-quoted identifier (Neo4j escape form).
			j := i + 1
			for j < n && src[j] != '`' {
				j++
			}
			if j >= n {
				return nil, &LexError{startLine, startCol, "unterminated backtick identifier"}
			}
			emit(tokIdent, src[i+1:j], startLine, startCol)
			advance(j - i + 1)
		default:
			// A character outside the grammar (a query's '.', '=', '*',
			// '<' or '>', say) reaches the parser as an illegal token, so
			// the error names the statement or pattern it broke. The token
			// is the whole rune, so the error quotes "→", not "\xe2"; a
			// byte that starts no valid rune is a token of its own.
			_, size := utf8.DecodeRuneInString(src[i:])
			emit(tokIllegal, src[i:i+size], startLine, startCol)
			advance(size)
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

func isNumChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == '_'
}

// isIdentStart reports whether s opens with an identifier's first rune.
func isIdentStart(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsLetter(r) || r == '_'
}

func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
