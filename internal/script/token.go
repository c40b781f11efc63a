// Package script implements PipeScript, VideoPipe's embedded module
// language — the stand-in for the paper's Duktape JavaScript engine (§3).
//
// PipeScript is a JavaScript-like language executed by a small, sandboxed
// tree-walking interpreter. Each pipeline module runs in its own isolated
// Context (mirroring the paper's one-Duktape-context-per-module design)
// with host bindings for the Table-1 API: call_service, call_module, log
// and per-module state. Contexts enforce an instruction budget and a call
// stack limit so a buggy module cannot wedge its hosting device.
//
// Supported language surface: numbers (float64), strings, booleans, null,
// arrays, objects, first-class functions and closures; var/let/const, if /
// else, while, for, for-of, return, break, continue, throw, try/catch;
// arithmetic, comparison, logical operators, ternary, compound assignment;
// member and index access; and a small builtin library (len, push, keys,
// math helpers, JSON encode/decode, string utilities).
package script

import "fmt"

// tokenKind enumerates lexical token types.
type tokenKind int

// Token kinds. The zero value is invalid.
const (
	tokenInvalid tokenKind = iota
	tokenEOF
	tokenNumber
	tokenString
	tokenIdent
	tokenKeyword
	tokenPunct
)

func (k tokenKind) String() string {
	switch k {
	case tokenEOF:
		return "end of input"
	case tokenNumber:
		return "number"
	case tokenString:
		return "string"
	case tokenIdent:
		return "identifier"
	case tokenKeyword:
		return "keyword"
	case tokenPunct:
		return "punctuation"
	default:
		return "invalid token"
	}
}

// Position locates a token or node in the source text, 1-based.
type Position struct {
	Line int
	Col  int
}

// String renders the position as line:col.
func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// before orders positions as they appear in the source.
func (p Position) before(q Position) bool {
	return p.Line < q.Line || (p.Line == q.Line && p.Col < q.Col)
}

// token is one lexical token.
type token struct {
	kind tokenKind
	text string
	num  float64
	pos  Position
}

func (t token) String() string {
	if t.kind == tokenEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords is the reserved-word set.
var keywords = map[string]bool{
	"var": true, "let": true, "const": true,
	"function": true, "return": true,
	"if": true, "else": true,
	"while": true, "for": true, "of": true,
	"break": true, "continue": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"throw": true, "try": true, "catch": true, "finally": true,
	"switch": true, "case": true, "default": true,
	"new": true, "typeof": true, "delete": true,
}
