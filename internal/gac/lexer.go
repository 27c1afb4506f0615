package gac

import (
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
	tokPunct // operators and punctuation; which one is in tok.code
)

// tokCode names a keyword or an operator: the parser and code generator
// compare codes, never text.
type tokCode uint8

const (
	codeNone tokCode = iota

	// Keywords, in symbol-id order (see newLexer).
	kwVar
	kwFunc
	kwIf
	kwElse
	kwWhile
	kwReturn
	kwBreak
	kwContinue

	// Operators and punctuation.
	opOrOr
	opAndAnd
	opOr
	opXor
	opAnd
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opShl
	opShr
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opNot
	opCompl
	opLParen
	opRParen
	opLBrace
	opRBrace
	opLBrack
	opRBrack
	opComma
	opSemi
	opAssign

	numCodes

	numKeywords = uint32(kwContinue - kwVar + 1)
)

// codeText is each code's source spelling, for error messages.
var codeText = [numCodes]string{
	kwVar: "var", kwFunc: "func", kwIf: "if", kwElse: "else", kwWhile: "while",
	kwReturn: "return", kwBreak: "break", kwContinue: "continue",
	opOrOr: "||", opAndAnd: "&&", opOr: "|", opXor: "^", opAnd: "&",
	opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opShl: "<<", opShr: ">>", opAdd: "+", opSub: "-", opMul: "*", opDiv: "/",
	opMod: "%", opNot: "!", opCompl: "~", opLParen: "(", opRParen: ")",
	opLBrace: "{", opRBrace: "}", opLBrack: "[", opRBrack: "]", opComma: ",",
	opSemi: ";", opAssign: "=",
}

func (c tokCode) String() string { return codeText[c] }

// token is one lexeme: fixed-size and pointer-free, its text is
// src[off:off+n]. The parser holds the current token in place; no list of
// tokens is ever built.
type token struct {
	kind tokKind
	code tokCode // keyword or operator; codeNone otherwise
	line int32
	off  uint32
	n    uint32
	// val is a number's value, or an identifier's symbol id: an index
	// into the lexer's names.
	val uint32
}

// lexer scans a program one token at a time, as the parser asks for them.
type lexer struct {
	src  string
	i    int
	line int32
	// err is the first lexical error. From it on, every token is tokEOF.
	err error
	// names maps symbol ids to names. The first ids are the keywords, in
	// code order, then the builtins, in builtins order, so one lookup
	// classifies a word and the code generator finds a builtin by id.
	names []string
	ids   map[string]uint32
}

func newLexer(src string) *lexer {
	l := &lexer{src: src, line: 1, names: make([]string, 0, 64), ids: make(map[string]uint32, 64)}
	for c := kwVar; c <= kwContinue; c++ {
		l.intern(codeText[c])
	}
	for _, b := range builtins {
		l.intern(b.name)
	}
	if uint64(len(src)) > 1<<31-1 {
		// Offsets and lines are 32-bit.
		l.err = errf(1, "source too large")
	}
	return l
}

// intern returns name's symbol id, giving it the next one if it has none.
func (l *lexer) intern(name string) uint32 {
	id, ok := l.ids[name]
	if !ok {
		id = uint32(len(l.names))
		l.ids[name] = id
		l.names = append(l.names, name)
	}
	return id
}

func (l *lexer) text(t *token) string { return l.src[t.off : t.off+t.n] }

// describe renders a token for an error message.
func (l *lexer) describe(t *token) string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNumber:
		return "number " + strconv.FormatUint(uint64(t.val), 10)
	}
	return strconv.Quote(l.text(t))
}

// Byte classes. The table is built from the predicates the lexer has
// always used (unicode.IsLetter and unicode.IsDigit on the byte as a
// rune), so a non-ASCII byte means what it always has: a Latin-1 letter
// is an identifier byte and anything else is an unexpected character.
const (
	clsOther   uint8 = iota // not valid outside a comment
	clsSpace                // ' ', '\t', '\r'
	clsNewline              // '\n'
	clsLetter               // starts an identifier
	clsDigit                // starts a number
	clsPunct                // starts an operator or punctuation
	clsMask    = 0x7f
	// clsWord marks the bytes that continue an identifier or a number.
	clsWord = 0x80
)

var byteClass [256]uint8

// punctCode is the code of each one-byte operator.
var punctCode = [256]tokCode{
	'+': opAdd, '-': opSub, '*': opMul, '/': opDiv, '%': opMod, '&': opAnd,
	'|': opOr, '^': opXor, '!': opNot, '~': opCompl, '(': opLParen,
	')': opRParen, '{': opLBrace, '}': opRBrace, '[': opLBrack,
	']': opRBrack, ',': opComma, ';': opSemi, '=': opAssign, '<': opLt,
	'>': opGt,
}

func init() {
	for i := range byteClass {
		c := byte(i)
		r := rune(c)
		switch {
		case c == '\n':
			byteClass[i] = clsNewline
		case c == ' ' || c == '\t' || c == '\r':
			byteClass[i] = clsSpace
		case unicode.IsLetter(r) || c == '_':
			byteClass[i] = clsLetter
		case unicode.IsDigit(r):
			byteClass[i] = clsDigit
		case punctCode[i] != codeNone:
			byteClass[i] = clsPunct
		}
		if c == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) {
			byteClass[i] |= clsWord
		}
	}
}

// The two-byte operators by first byte: that byte followed by '=', and
// that byte doubled.
var (
	eqCode  = [256]tokCode{'<': opLe, '>': opGe, '=': opEq, '!': opNe}
	dupCode = [256]tokCode{'<': opShl, '>': opShr, '&': opAndAnd, '|': opOrOr}
)

// scan reads the next token into t.
func (l *lexer) scan(t *token) {
	src, n := l.src, len(l.src)
	i := l.i
	for l.err == nil && i < n {
		c := src[i]
		switch byteClass[c] & clsMask {
		case clsNewline:
			l.line++
			i++
		case clsSpace:
			i++
		case clsLetter:
			start := i
			for i++; i < n && byteClass[src[i]]&clsWord != 0; i++ {
			}
			*t = token{kind: tokIdent, line: l.line, off: uint32(start), n: uint32(i - start), val: l.intern(src[start:i])}
			if t.val < numKeywords {
				t.kind, t.code, t.val = tokKeyword, kwVar+tokCode(t.val), 0
			}
			l.i = i
			return
		case clsDigit:
			start := i
			for i++; i < n && byteClass[src[i]]&clsWord != 0; i++ {
			}
			v, err := strconv.ParseUint(src[start:i], 0, 32)
			if err != nil {
				l.err = errf(int(l.line), "bad number %q", src[start:i])
				break
			}
			*t = token{kind: tokNumber, line: l.line, off: uint32(start), n: uint32(i - start), val: uint32(v)}
			l.i = i
			return
		case clsPunct:
			if c == '/' && i+1 < n && src[i+1] == '/' {
				if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
					i += j
				} else {
					i = n
				}
				continue
			}
			if c == '/' && i+1 < n && src[i+1] == '*' {
				j := strings.Index(src[i+2:], "*/")
				if j < 0 {
					l.err = errf(int(l.line), "unterminated block comment")
					break
				}
				l.line += int32(strings.Count(src[i+2:i+2+j], "\n"))
				i += j + 4
				continue
			}
			*t = token{kind: tokPunct, code: punctCode[c], line: l.line, off: uint32(i), n: 1}
			if i+1 < n {
				switch d := src[i+1]; {
				case d == '=' && eqCode[c] != codeNone:
					t.code, t.n = eqCode[c], 2
				case d == c && dupCode[c] != codeNone:
					t.code, t.n = dupCode[c], 2
				}
			}
			l.i = i + int(t.n)
			return
		default:
			l.err = errf(int(l.line), "unexpected character %q", string(rune(c)))
		}
	}
	l.i = i
	*t = token{kind: tokEOF, line: l.line, off: uint32(i)}
}

// finish scans the rest of the source and returns its first lexical
// error, if any. A lexical error outranks every other: the compiler
// reports it even when the parser has already failed earlier in the
// source.
func (l *lexer) finish() error {
	var t token
	for l.scan(&t); t.kind != tokEOF; l.scan(&t) {
	}
	return l.err
}
