// Package cypher implements the Cypher-subset language engine that stands
// in for Neo4j in the Pseudo-Graph Generation step. The subset covers what
// the paper's prompts elicit from the LLM (Figs. 2–3): CREATE statements
// over node patterns with labels and property maps, relationship patterns
// with typed arrows, comma-separated pattern lists and line comments.
// MERGE is read as CREATE; any other statement (MATCH included) is a
// parse error. The paper never queries the pseudo-graph it builds, so
// neither does this engine: a script's only output is its triples.
//
// The package is organised conventionally: lexer (this file) → parser
// (parser.go, producing the AST in ast.go) → executor (exec.go, building a
// propgraph.Graph) → decoder (decode.go, flattening to kg triples).
package cypher

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind enumerates lexical token classes.
type TokenKind int

const (
	TokEOF TokenKind = iota
	TokIdent
	TokString
	TokNumber
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokColon
	TokComma
	TokDash      // -
	TokArrowTail // ->
	TokArrowHead // <-
	TokSemicolon
	TokIllegal // any character outside the grammar
)

// String names the token kind for error messages.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokString:
		return "string"
	case TokNumber:
		return "number"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokLBracket:
		return "'['"
	case TokRBracket:
		return "']'"
	case TokColon:
		return "':'"
	case TokComma:
		return "','"
	case TokDash:
		return "'-'"
	case TokArrowTail:
		return "'->'"
	case TokArrowHead:
		return "'<-'"
	case TokSemicolon:
		return "';'"
	case TokIllegal:
		return "illegal character"
	default:
		return "unknown token"
	}
}

// Token is one lexical unit with its source position (1-based line/column).
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
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

// Lex tokenises src. Line comments (// ...) and whitespace are skipped.
// Both single- and double-quoted strings are accepted (LLM output mixes
// them); backslash escapes \" \' \\ \n \t are honoured. Only an
// unterminated string or backtick identifier is a lex error: any other
// character outside the grammar becomes a TokIllegal token.
func Lex(src string) ([]Token, error) {
	var toks []Token
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
	emit := func(kind TokenKind, text string, l, c int) {
		toks = append(toks, Token{Kind: kind, Text: text, Line: l, Col: c})
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
			emit(TokLParen, "(", startLine, startCol)
			advance(1)
		case c == ')':
			emit(TokRParen, ")", startLine, startCol)
			advance(1)
		case c == '{':
			emit(TokLBrace, "{", startLine, startCol)
			advance(1)
		case c == '}':
			emit(TokRBrace, "}", startLine, startCol)
			advance(1)
		case c == '[':
			emit(TokLBracket, "[", startLine, startCol)
			advance(1)
		case c == ']':
			emit(TokRBracket, "]", startLine, startCol)
			advance(1)
		case c == ':':
			emit(TokColon, ":", startLine, startCol)
			advance(1)
		case c == ',':
			emit(TokComma, ",", startLine, startCol)
			advance(1)
		case c == ';':
			emit(TokSemicolon, ";", startLine, startCol)
			advance(1)
		case c == '-':
			if i+1 < n && src[i+1] == '>' {
				emit(TokArrowTail, "->", startLine, startCol)
				advance(2)
			} else if i+1 < n && (src[i+1] >= '0' && src[i+1] <= '9') {
				// Negative number literal.
				j := i + 1
				for j < n && isNumChar(src[j]) {
					j++
				}
				emit(TokNumber, src[i:j], startLine, startCol)
				advance(j - i)
			} else {
				emit(TokDash, "-", startLine, startCol)
				advance(1)
			}
		case c == '<' && i+1 < n && src[i+1] == '-':
			emit(TokArrowHead, "<-", startLine, startCol)
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
			emit(TokString, b.String(), startLine, startCol)
			advance(consumed)
		case c >= '0' && c <= '9':
			j := i
			for j < n && isNumChar(src[j]) {
				j++
			}
			emit(TokNumber, src[i:j], startLine, startCol)
			advance(j - i)
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentChar(rune(src[j])) {
				j++
			}
			emit(TokIdent, src[i:j], startLine, startCol)
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
			emit(TokIdent, src[i+1:j], startLine, startCol)
			advance(j - i + 1)
		default:
			// A character outside the grammar (a query's '.', '=', '*',
			// '<' or '>', say) reaches the parser as an illegal token, so
			// the error names the statement or pattern it broke.
			emit(TokIllegal, src[i:i+1], startLine, startCol)
			advance(1)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

func isNumChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == '_'
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
