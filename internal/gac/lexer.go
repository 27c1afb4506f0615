package gac

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokKeyword
	tokPunct // operators and punctuation, in tok.text
)

type token struct {
	kind tokKind
	text string
	num  uint32
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNumber:
		return fmt.Sprintf("number %d", t.num)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]bool{
	"var": true, "func": true, "if": true, "else": true, "while": true,
	"return": true, "break": true, "continue": true,
}

// multi-character operators, longest first.
var multiOps = []string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||"}

func lex(src string) ([]token, error) {
	// Spaced source runs about two bytes to the token; sizing for that up
	// front replaces a dozen regrowths of a megabyte-class slice with none
	// (denser source grows once).
	toks := make([]token, 0, len(src)/2+1)
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			start := line
			i += 2
			for {
				if i+1 >= n {
					return nil, errf(start, "unterminated block comment")
				}
				if src[i] == '\n' {
					line++
				}
				if src[i] == '*' && src[i+1] == '/' {
					i += 2
					break
				}
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (isIdentChar(src[i])) {
				i++
			}
			word := src[start:i]
			kind := tokIdent
			if keywords[word] {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: word, line: line})
		case unicode.IsDigit(rune(c)):
			start := i
			for i < n && isIdentChar(src[i]) {
				i++
			}
			lit := src[start:i]
			v, err := strconv.ParseUint(lit, 0, 32)
			if err != nil {
				return nil, errf(line, "bad number %q", lit)
			}
			toks = append(toks, token{kind: tokNumber, text: lit, num: uint32(v), line: line})
		default:
			matched := false
			for _, op := range multiOps {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{kind: tokPunct, text: op, line: line})
					i += len(op)
					matched = true
					break
				}
			}
			if matched {
				break
			}
			switch c {
			case '+', '-', '*', '/', '%', '&', '|', '^', '!', '~',
				'(', ')', '{', '}', '[', ']', ',', ';', '=', '<', '>':
				toks = append(toks, token{kind: tokPunct, text: string(c), line: line})
				i++
			default:
				return nil, errf(line, "unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == 'x' || c == 'X'
}
