package pig

// This file implements a small Pig Latin front-end: the paper's queries
// are Pig Latin scripts that Pig translates into MapReduce plans (§2.1),
// and the two evaluation queries fit a LOAD → [FILTER] → [FOREACH
// projection] → GROUP BY → FOREACH GENERATE UDF(...) → STORE pipeline.
// Parse turns such a script into a Script; Script.Plan lowers it to a
// GroupQuery ready to compile onto the MapReduce engine.
//
// Supported grammar (a faithful subset of Pig Latin 0.7):
//
//	alias = LOAD 'name' AS (field, field, ...);
//	alias = FILTER alias BY field <op> literal;        op: == != < <= > >=
//	alias = FOREACH alias GENERATE field, field, ...;
//	alias = GROUP alias BY field;
//	alias = FOREACH alias GENERATE group, UDF(field, n);
//	STORE alias INTO 'name';
//
// UDFs: TOPK(field, k) and QUANTILES(field, q); QUANTILES implies the
// group's bag is ordered by the field.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// --- Lexer ---------------------------------------------------------------

type tokKind int

const (
	tokIdent tokKind = iota
	tokString
	tokNumber
	tokPunct // = ( ) , ; and comparison operators
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Comment to end of line.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'':
			start := l.pos + 1
			end := strings.IndexByte(l.src[start:], '\'')
			if end < 0 {
				return nil, fmt.Errorf("pig latin: unterminated string at %d", l.pos)
			}
			l.emit(tokString, l.src[start:start+end])
			l.pos = start + end + 1
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos])
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.emit(tokNumber, l.src[start:l.pos])
		case strings.ContainsRune("=!<>", rune(c)):
			start := l.pos
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			l.emit(tokPunct, l.src[start:l.pos])
		case strings.ContainsRune("(),;", rune(c)):
			l.emit(tokPunct, string(c))
			l.pos++
		default:
			return nil, fmt.Errorf("pig latin: unexpected character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(kind tokKind, text string) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: l.pos})
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

// --- AST -----------------------------------------------------------------

// Statement is one Pig Latin statement.
type Statement interface{ stmt() }

// LoadStmt is `alias = LOAD 'name' AS (fields...)`.
type LoadStmt struct {
	Alias  string
	Input  string
	Schema []string
}

// FilterStmt is `alias = FILTER src BY field op literal`.
type FilterStmt struct {
	Alias, Src string
	Field      string
	Op         string
	Literal    Value
}

// ProjectStmt is `alias = FOREACH src GENERATE fields...` (no UDF).
type ProjectStmt struct {
	Alias, Src string
	Fields     []string
}

// GroupStmt is `alias = GROUP src BY field`.
type GroupStmt struct {
	Alias, Src string
	Field      string
}

// ApplyStmt is `alias = FOREACH src GENERATE group, UDF(field, n)`.
type ApplyStmt struct {
	Alias, Src string
	UDFName    string
	Field      string
	Arg        int
}

// StoreStmt is `STORE alias INTO 'name'`.
type StoreStmt struct {
	Src    string
	Output string
}

func (*LoadStmt) stmt()    {}
func (*FilterStmt) stmt()  {}
func (*ProjectStmt) stmt() {}
func (*GroupStmt) stmt()   {}
func (*ApplyStmt) stmt()   {}
func (*StoreStmt) stmt()   {}

// Script is a parsed Pig Latin script.
type Script struct {
	Statements []Statement
}

// --- Parser ----------------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

// Parse parses a Pig Latin script.
func Parse(src string) (*Script, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var s Script
	for p.peek().kind != tokEOF {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.Statements = append(s.Statements, st)
	}
	if len(s.Statements) == 0 {
		return nil, fmt.Errorf("pig latin: empty script")
	}
	return &s, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.next()
	if t.kind != kind || (text != "" && !strings.EqualFold(t.text, text)) {
		return t, fmt.Errorf("pig latin: expected %q near position %d, got %q", text, t.pos, t.text)
	}
	return t, nil
}

func (p *parser) keyword(t token) string { return strings.ToUpper(t.text) }

func (p *parser) statement() (Statement, error) {
	first, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if p.keyword(first) == "STORE" {
		return p.storeStmt()
	}
	alias := first.text
	if _, err := p.expect(tokPunct, "="); err != nil {
		return nil, err
	}
	verb, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	switch p.keyword(verb) {
	case "LOAD":
		return p.loadStmt(alias)
	case "FILTER":
		return p.filterStmt(alias)
	case "FOREACH":
		return p.foreachStmt(alias)
	case "GROUP":
		return p.groupStmt(alias)
	}
	return nil, fmt.Errorf("pig latin: unknown verb %q", verb.text)
}

func (p *parser) loadStmt(alias string) (Statement, error) {
	in, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "AS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var schema []string
	for {
		f, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		schema = append(schema, f.text)
		t := p.next()
		if t.text == ")" {
			break
		}
		if t.text != "," {
			return nil, fmt.Errorf("pig latin: expected , or ) in schema, got %q", t.text)
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &LoadStmt{Alias: alias, Input: in.text, Schema: schema}, nil
}

func (p *parser) filterStmt(alias string) (Statement, error) {
	src, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "BY"); err != nil {
		return nil, err
	}
	field, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	op := p.next()
	if op.kind != tokPunct || !validCmp(op.text) {
		return nil, fmt.Errorf("pig latin: bad comparison %q", op.text)
	}
	lit := p.next()
	var val Value
	switch lit.kind {
	case tokString:
		val = lit.text
	case tokNumber:
		if strings.Contains(lit.text, ".") {
			f, err := strconv.ParseFloat(lit.text, 64)
			if err != nil {
				return nil, err
			}
			val = f
		} else {
			n, err := strconv.ParseInt(lit.text, 10, 64)
			if err != nil {
				return nil, err
			}
			val = n
		}
	default:
		return nil, fmt.Errorf("pig latin: bad literal %q", lit.text)
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &FilterStmt{Alias: alias, Src: src.text, Field: field.text, Op: op.text, Literal: val}, nil
}

func validCmp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) foreachStmt(alias string) (Statement, error) {
	src, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "GENERATE"); err != nil {
		return nil, err
	}
	first, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	// `GENERATE group, UDF(field, n)` → apply; else a projection list.
	if strings.EqualFold(first.text, "group") {
		if _, err := p.expect(tokPunct, ","); err != nil {
			return nil, err
		}
		udf, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		field, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ","); err != nil {
			return nil, err
		}
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		arg, err := strconv.Atoi(num.text)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &ApplyStmt{Alias: alias, Src: src.text, UDFName: strings.ToUpper(udf.text), Field: field.text, Arg: arg}, nil
	}
	fields := []string{first.text}
	for p.peek().text == "," {
		p.next()
		f, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		fields = append(fields, f.text)
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &ProjectStmt{Alias: alias, Src: src.text, Fields: fields}, nil
}

func (p *parser) groupStmt(alias string) (Statement, error) {
	src, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "BY"); err != nil {
		return nil, err
	}
	field, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &GroupStmt{Alias: alias, Src: src.text, Field: field.text}, nil
}

func (p *parser) storeStmt() (Statement, error) {
	src, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "INTO"); err != nil {
		return nil, err
	}
	out, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &StoreStmt{Src: src.text, Output: out.text}, nil
}

// --- Planner ---------------------------------------------------------------

// Plan lowers the script to a GroupQuery. The pipeline must be LOAD →
// [FILTER] → [FOREACH projection] → GROUP → FOREACH GENERATE UDF →
// STORE, which covers both of the paper's queries. The returned query's
// Input field is left empty: the caller attaches the dataset (the LOAD
// name is returned for it to resolve).
func (s *Script) Plan() (q *GroupQuery, input string, err error) {
	var (
		load    *LoadStmt
		filter  *FilterStmt
		project *ProjectStmt
		group   *GroupStmt
		apply   *ApplyStmt
		store   *StoreStmt
	)
	for _, st := range s.Statements {
		switch v := st.(type) {
		case *LoadStmt:
			if load != nil {
				return nil, "", fmt.Errorf("pig latin: multiple LOADs")
			}
			load = v
		case *FilterStmt:
			filter = v
		case *ProjectStmt:
			project = v
		case *GroupStmt:
			group = v
		case *ApplyStmt:
			apply = v
		case *StoreStmt:
			store = v
		}
	}
	if load == nil || group == nil || apply == nil || store == nil {
		return nil, "", fmt.Errorf("pig latin: pipeline needs LOAD, GROUP, a UDF FOREACH, and STORE")
	}

	// Resolve field positions through the (optional) projection.
	schema := load.Schema
	fieldIdx := func(name string, sch []string) (int, error) {
		for i, f := range sch {
			if f == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("pig latin: unknown field %q (schema %v)", name, sch)
	}

	q = &GroupQuery{Name: store.Output}

	if filter != nil {
		idx, err := fieldIdx(filter.Field, schema)
		if err != nil {
			return nil, "", err
		}
		op := filter.Op
		switch lit := filter.Literal.(type) {
		case string:
			q.Filter = func(t Cursor) bool { return cmpMatch(strings.Compare(t.String(idx), lit), op) }
		case int64:
			q.Filter = func(t Cursor) bool { return cmpMatch(compareFloat(t.Number(idx), float64(lit)), op) }
		case float64:
			q.Filter = func(t Cursor) bool { return cmpMatch(compareFloat(t.Number(idx), lit), op) }
		}
	}

	postSchema := schema
	if project != nil {
		q.Project = make([]int, len(project.Fields))
		for i, f := range project.Fields {
			idx, err := fieldIdx(f, schema)
			if err != nil {
				return nil, "", err
			}
			q.Project[i] = idx
		}
		postSchema = project.Fields
	}

	gidx, err := fieldIdx(group.Field, postSchema)
	if err != nil {
		return nil, "", err
	}
	q.GroupKey = func(t Cursor) string { return t.String(gidx) }

	uidx, err := fieldIdx(apply.Field, postSchema)
	if err != nil {
		return nil, "", err
	}
	switch apply.UDFName {
	case "TOPK":
		q.UDF = TopK(uidx, apply.Arg, 0)
	case "QUANTILES":
		q.UDF = Quantiles(uidx, apply.Arg)
		q.SortKey = func(t Cursor) float64 { return t.Float(uidx) }
	default:
		return nil, "", fmt.Errorf("pig latin: unknown UDF %q", apply.UDFName)
	}
	return q, load.Input, nil
}

func cmpMatch(c int, op string) bool {
	switch op {
	case "==":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}
