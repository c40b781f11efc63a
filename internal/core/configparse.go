package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode"

	"videopipe/internal/wire"
)

// This file parses the pipeline configuration dialect of the paper's
// Listing 1:
//
//	modules : [
//	  { name: pose_detector_module
//	    include ("./PoseDetectorModule.js")
//	    service: ['pose_detector']
//	    endpoint: ["bind#tcp://*:5861"]
//	    next_module: activity_detector_module }
//	  ...
//	]
//	source : { device: phone, module: video_streaming, fps: 20,
//	           width: 480, height: 360, scene: squat, rep_rate: 0.5 }
//
// The grammar is deliberately forgiving: commas are optional separators,
// identifiers and quoted strings are interchangeable as scalar values, and
// single-element lists may be written bare.

// Resolver loads the contents of an include()d module file.
type Resolver func(path string) (string, error)

// FileResolver resolves includes relative to dir.
func FileResolver(dir string) Resolver {
	return func(path string) (string, error) {
		data, err := os.ReadFile(filepath.Join(dir, path))
		if err != nil {
			return "", fmt.Errorf("core: include %q: %w", path, err)
		}
		return string(data), nil
	}
}

// ParseConfig parses a Listing-1-style pipeline configuration. name is
// used as the pipeline name when the config does not set one. resolve
// loads include()d files; nil rejects includes.
func ParseConfig(name, text string, resolve Resolver) (*PipelineConfig, error) {
	toks, err := lexConfig(text)
	if err != nil {
		return nil, err
	}
	p := &configParser{toks: toks}
	doc, err := p.document()
	if err != nil {
		return nil, err
	}
	return buildConfig(name, doc, resolve)
}

// ---- lexer ----

type cfgToken struct {
	kind string // "ident", "string", "number", "punct", "eof"
	text string
	num  float64
	line int
}

func lexConfig(src string) ([]cfgToken, error) {
	var toks []cfgToken
	line := 1
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == '\n':
			line++
			i++
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case ch == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case ch == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.ContainsRune("{}[]():,", rune(ch)):
			toks = append(toks, cfgToken{kind: "punct", text: string(ch), line: line})
			i++
		case ch == '\'' || ch == '"':
			quote := ch
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != quote {
				if src[j] == '\n' {
					return nil, fmt.Errorf("core: config line %d: unterminated string", line)
				}
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("core: config line %d: unterminated string", line)
			}
			toks = append(toks, cfgToken{kind: "string", text: b.String(), line: line})
			i = j + 1
		case ch >= '0' && ch <= '9' || ch == '-' || ch == '+':
			j := i + 1
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' || src[j] == 'e' || src[j] == 'E') {
				j++
			}
			n, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("core: config line %d: bad number %q", line, src[i:j])
			}
			toks = append(toks, cfgToken{kind: "number", text: src[i:j], num: n, line: line})
			i = j
		case ch == '_' || unicode.IsLetter(rune(ch)):
			j := i + 1
			for j < len(src) && (src[j] == '_' || src[j] == '.' || src[j] == '-' ||
				unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j]))) {
				j++
			}
			toks = append(toks, cfgToken{kind: "ident", text: src[i:j], line: line})
			i = j
		default:
			return nil, fmt.Errorf("core: config line %d: unexpected character %q", line, ch)
		}
	}
	toks = append(toks, cfgToken{kind: "eof", line: line})
	return toks, nil
}

// ---- parser: produces generic values ----

// cfgValue is string | float64 | []cfgValue | cfgObject | cfgCall.
type cfgValue any

type cfgObject struct {
	entries []cfgEntry
}

type cfgEntry struct {
	key   string
	value cfgValue
	line  int
}

type cfgCall struct {
	name string
	arg  cfgValue
}

type configParser struct {
	toks []cfgToken
	pos  int
}

func (p *configParser) cur() cfgToken { return p.toks[p.pos] }

func (p *configParser) advance() cfgToken {
	t := p.cur()
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *configParser) errf(format string, args ...any) error {
	return fmt.Errorf("core: config line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *configParser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == "punct" && t.text == s
}

func (p *configParser) skipCommas() {
	for p.isPunct(",") {
		p.advance()
	}
}

// document parses top-level "key : value" entries until EOF.
func (p *configParser) document() (*cfgObject, error) {
	doc := &cfgObject{}
	for {
		p.skipCommas()
		if p.cur().kind == "eof" {
			return doc, nil
		}
		e, err := p.entry()
		if err != nil {
			return nil, err
		}
		doc.entries = append(doc.entries, *e)
	}
}

func (p *configParser) entry() (*cfgEntry, error) {
	t := p.cur()
	if t.kind != "ident" && t.kind != "string" {
		return nil, p.errf("expected key, found %q", t.text)
	}
	p.advance()
	// Call form: include ("path") — keyless entry.
	if p.isPunct("(") {
		p.advance()
		arg, err := p.value()
		if err != nil {
			return nil, err
		}
		if !p.isPunct(")") {
			return nil, p.errf("expected ')' after %s(...)", t.text)
		}
		p.advance()
		return &cfgEntry{key: t.text, value: cfgCall{name: t.text, arg: arg}, line: t.line}, nil
	}
	if !p.isPunct(":") {
		return nil, p.errf("expected ':' after key %q", t.text)
	}
	p.advance()
	v, err := p.value()
	if err != nil {
		return nil, err
	}
	return &cfgEntry{key: t.text, value: v, line: t.line}, nil
}

func (p *configParser) value() (cfgValue, error) {
	t := p.cur()
	switch {
	case t.kind == "string":
		p.advance()
		return t.text, nil
	case t.kind == "number":
		p.advance()
		return t.num, nil
	case t.kind == "ident":
		p.advance()
		if p.isPunct("(") { // call as a value
			p.advance()
			arg, err := p.value()
			if err != nil {
				return nil, err
			}
			if !p.isPunct(")") {
				return nil, p.errf("expected ')'")
			}
			p.advance()
			return cfgCall{name: t.text, arg: arg}, nil
		}
		return t.text, nil
	case p.isPunct("["):
		p.advance()
		var list []cfgValue
		for {
			p.skipCommas()
			if p.isPunct("]") {
				p.advance()
				return list, nil
			}
			if p.cur().kind == "eof" {
				return nil, p.errf("unterminated list")
			}
			v, err := p.value()
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
	case p.isPunct("{"):
		p.advance()
		obj := &cfgObject{}
		for {
			p.skipCommas()
			if p.isPunct("}") {
				p.advance()
				return obj, nil
			}
			if p.cur().kind == "eof" {
				return nil, p.errf("unterminated object")
			}
			e, err := p.entry()
			if err != nil {
				return nil, err
			}
			obj.entries = append(obj.entries, *e)
		}
	default:
		return nil, p.errf("unexpected token %q", t.text)
	}
}

// ---- mapping to PipelineConfig ----

func (o *cfgObject) get(key string) (cfgValue, bool) {
	for _, e := range o.entries {
		if e.key == key {
			return e.value, true
		}
	}
	return nil, false
}

// asStrings normalizes a scalar-or-list value to a string slice.
func asStrings(v cfgValue) ([]string, error) {
	switch x := v.(type) {
	case string:
		return []string{x}, nil
	case []cfgValue:
		out := make([]string, 0, len(x))
		for _, e := range x {
			s, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("core: config: expected string in list, found %T", e)
			}
			out = append(out, s)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: config: expected string or list, found %T", v)
	}
}

func buildConfig(name string, doc *cfgObject, resolve Resolver) (*PipelineConfig, error) {
	cfg := &PipelineConfig{Name: name}
	if v, ok := doc.get("name"); ok {
		if s, ok := v.(string); ok {
			cfg.Name = s
		}
	}

	modulesVal, ok := doc.get("modules")
	if !ok {
		return nil, fmt.Errorf("core: config: missing modules list")
	}
	moduleList, ok := modulesVal.([]cfgValue)
	if !ok {
		return nil, fmt.Errorf("core: config: modules must be a list")
	}
	for i, mv := range moduleList {
		obj, ok := mv.(*cfgObject)
		if !ok {
			return nil, fmt.Errorf("core: config: module %d is not an object", i)
		}
		mc, err := buildModule(obj, resolve)
		if err != nil {
			return nil, err
		}
		cfg.Modules = append(cfg.Modules, *mc)
	}

	if sv, ok := doc.get("source"); ok {
		obj, ok := sv.(*cfgObject)
		if !ok {
			return nil, fmt.Errorf("core: config: source must be an object")
		}
		if err := buildSource(obj, &cfg.Source); err != nil {
			return nil, err
		}
	}
	if lv, ok := doc.get("limits"); ok {
		obj, ok := lv.(*cfgObject)
		if !ok {
			return nil, fmt.Errorf("core: config: limits must be an object")
		}
		if err := buildLimits(obj, &cfg.Limits); err != nil {
			return nil, err
		}
	}
	if cfg.Source.FirstModule == "" && len(cfg.Modules) > 0 {
		cfg.Source.FirstModule = cfg.Modules[0].Name
	}
	return cfg, nil
}

func buildModule(obj *cfgObject, resolve Resolver) (*ModuleConfig, error) {
	mc := &ModuleConfig{}
	for _, e := range obj.entries {
		switch e.key {
		case "name":
			s, ok := e.value.(string)
			if !ok {
				return nil, fmt.Errorf("core: config line %d: module name must be a string", e.line)
			}
			mc.Name = s
		case "include":
			call, ok := e.value.(cfgCall)
			var path string
			if ok {
				path, _ = call.arg.(string)
			} else {
				path, _ = e.value.(string)
			}
			if path == "" {
				return nil, fmt.Errorf("core: config line %d: include needs a path", e.line)
			}
			if resolve == nil {
				return nil, fmt.Errorf("core: config line %d: include %q: no resolver provided", e.line, path)
			}
			src, err := resolve(path)
			if err != nil {
				return nil, err
			}
			mc.Source = src
		case "source", "code":
			s, ok := e.value.(string)
			if !ok {
				return nil, fmt.Errorf("core: config line %d: module source must be a string", e.line)
			}
			mc.Source = s
		case "service", "services":
			ss, err := asStrings(e.value)
			if err != nil {
				return nil, fmt.Errorf("core: config line %d: %w", e.line, err)
			}
			mc.Services = ss
		case "endpoint", "endpoints":
			ss, err := asStrings(e.value)
			if err != nil {
				return nil, fmt.Errorf("core: config line %d: %w", e.line, err)
			}
			if len(ss) > 0 {
				ep, err := wire.ParseEndpoint(ss[0])
				if err != nil {
					return nil, fmt.Errorf("core: config line %d: %w", e.line, err)
				}
				mc.Endpoint = ep
			}
		case "next_module", "next":
			ss, err := asStrings(e.value)
			if err != nil {
				return nil, fmt.Errorf("core: config line %d: %w", e.line, err)
			}
			mc.Next = ss
		case "device":
			s, ok := e.value.(string)
			if !ok {
				return nil, fmt.Errorf("core: config line %d: device must be a string", e.line)
			}
			mc.Device = s
		case "limits":
			obj, ok := e.value.(*cfgObject)
			if !ok {
				return nil, fmt.Errorf("core: config line %d: limits must be an object", e.line)
			}
			if err := buildLimits(obj, &mc.Limits); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: config line %d: unknown module field %q", e.line, e.key)
		}
	}
	if mc.Name == "" {
		return nil, fmt.Errorf("core: config: module missing name")
	}
	return mc, nil
}

// buildLimits maps a `limits { ... }` block onto a LimitsConfig; it
// appears at the top level (pipeline-wide budget) and inside a module
// entry (per-module override).
func buildLimits(obj *cfgObject, lc *LimitsConfig) error {
	for _, e := range obj.entries {
		n, ok := e.value.(float64)
		if !ok {
			return fmt.Errorf("core: config line %d: %s must be a number", e.line, e.key)
		}
		switch e.key {
		case "instructions", "instruction_limit":
			lc.Instructions = int64(n)
		case "init_instructions":
			lc.InitInstructions = int64(n)
		case "memory", "memory_limit":
			lc.Memory = int64(n)
		case "output", "output_limit":
			lc.Output = int64(n)
		default:
			return fmt.Errorf("core: config line %d: unknown limits field %q", e.line, e.key)
		}
	}
	return nil
}

func buildSource(obj *cfgObject, sc *SourceConfig) error {
	for _, e := range obj.entries {
		strVal := func() (string, error) {
			s, ok := e.value.(string)
			if !ok {
				return "", fmt.Errorf("core: config line %d: %s must be a string", e.line, e.key)
			}
			return s, nil
		}
		numVal := func() (float64, error) {
			n, ok := e.value.(float64)
			if !ok {
				return 0, fmt.Errorf("core: config line %d: %s must be a number", e.line, e.key)
			}
			return n, nil
		}
		var err error
		switch e.key {
		case "device":
			sc.Device, err = strVal()
		case "module", "first_module":
			sc.FirstModule, err = strVal()
		case "fps":
			sc.FPS, err = numVal()
		case "width":
			var n float64
			n, err = numVal()
			sc.Width = int(n)
		case "height":
			var n float64
			n, err = numVal()
			sc.Height = int(n)
		case "scene":
			sc.Scene, err = strVal()
		case "rep_rate":
			sc.RepRate, err = numVal()
		default:
			return fmt.Errorf("core: config line %d: unknown source field %q", e.line, e.key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
