package gac

// The string-token lexer the token-stream lexer replaced, kept verbatim
// (only its names differ) as the reference FuzzLexMatchesReference holds
// the new one to.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type refToken struct {
	kind tokKind
	text string
	num  uint32
	line int
}

func (t refToken) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNumber:
		return fmt.Sprintf("number %d", t.num)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var refKeywords = map[string]bool{
	"var": true, "func": true, "if": true, "else": true, "while": true,
	"return": true, "break": true, "continue": true,
}

// multi-character operators, longest first.
var refMultiOps = []string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||"}

func refLex(src string) ([]refToken, error) {
	// Spaced source runs about two bytes to the refToken; sizing for that up
	// front replaces a dozen regrowths of a megabyte-class slice with none
	// (denser source grows once).
	toks := make([]refToken, 0, len(src)/2+1)
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
			for i < n && (refIsIdentChar(src[i])) {
				i++
			}
			word := src[start:i]
			kind := tokIdent
			if refKeywords[word] {
				kind = tokKeyword
			}
			toks = append(toks, refToken{kind: kind, text: word, line: line})
		case unicode.IsDigit(rune(c)):
			start := i
			for i < n && refIsIdentChar(src[i]) {
				i++
			}
			lit := src[start:i]
			v, err := strconv.ParseUint(lit, 0, 32)
			if err != nil {
				return nil, errf(line, "bad number %q", lit)
			}
			toks = append(toks, refToken{kind: tokNumber, text: lit, num: uint32(v), line: line})
		default:
			matched := false
			for _, op := range refMultiOps {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, refToken{kind: tokPunct, text: op, line: line})
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
				toks = append(toks, refToken{kind: tokPunct, text: string(c), line: line})
				i++
			default:
				return nil, errf(line, "unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, refToken{kind: tokEOF, line: line})
	return toks, nil
}

func refIsIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == 'x' || c == 'X'
}
