package pig

import (
	"strings"
	"testing"
)

// The paper's two evaluation queries as Pig Latin scripts.
const anchortextScript = `
-- Frequent Anchortext (§4.2.1): holistic UDF over skewed groups.
pages = LOAD 'web' AS (url, domain, language, spam, terms, meta);
proj  = FOREACH pages GENERATE language, terms;
grps  = GROUP proj BY language;
top   = FOREACH grps GENERATE group, TOPK(terms, 10);
STORE top INTO 'frequent-anchortext';
`

const spamScript = `
-- Spam Quantiles (§4.2.1): ordered bag, naive lack of projection.
pages = LOAD 'web' AS (url, domain, language, spam, terms, meta);
grps  = GROUP pages BY domain;
quant = FOREACH grps GENERATE group, QUANTILES(spam, 10);
STORE quant INTO 'spam-quantiles';
`

func TestParseAnchortextScript(t *testing.T) {
	s, err := Parse(anchortextScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Statements) != 5 {
		t.Fatalf("statements = %d", len(s.Statements))
	}
	load := s.Statements[0].(*LoadStmt)
	if load.Alias != "pages" || load.Input != "web" || len(load.Schema) != 6 {
		t.Fatalf("load = %+v", load)
	}
	proj := s.Statements[1].(*ProjectStmt)
	if len(proj.Fields) != 2 || proj.Fields[0] != "language" {
		t.Fatalf("project = %+v", proj)
	}
	grp := s.Statements[2].(*GroupStmt)
	if grp.Field != "language" || grp.Src != "proj" {
		t.Fatalf("group = %+v", grp)
	}
	apply := s.Statements[3].(*ApplyStmt)
	if apply.UDFName != "TOPK" || apply.Field != "terms" || apply.Arg != 10 {
		t.Fatalf("apply = %+v", apply)
	}
	store := s.Statements[4].(*StoreStmt)
	if store.Output != "frequent-anchortext" {
		t.Fatalf("store = %+v", store)
	}
}

func TestPlanAnchortext(t *testing.T) {
	s, err := Parse(anchortextScript)
	if err != nil {
		t.Fatal(err)
	}
	q, input, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if input != "web" || q.Name != "frequent-anchortext" {
		t.Fatalf("plan meta: input=%q name=%q", input, q.Name)
	}
	page := cursorOf(Tuple{"u", "d.com", "en", 0.5, Tuple{"a", "b"}, "meta"})
	if q.Project == nil {
		t.Fatal("plan lost the projection")
	}
	p := mustScan(page.AppendProject(nil, q.Project))
	if p.Len() != 2 || p.String(0) != "en" || p.Nested(1).String(1) != "b" {
		t.Fatalf("projection = %v", p.Tuple())
	}
	if q.GroupKey(p) != "en" {
		t.Fatalf("group key = %q", q.GroupKey(p))
	}
	if q.SortKey != nil {
		t.Fatal("top-k query should not order its bags")
	}
	if q.UDF == nil {
		t.Fatal("no UDF planned")
	}
}

func TestPlanSpamQuantiles(t *testing.T) {
	s, err := Parse(spamScript)
	if err != nil {
		t.Fatal(err)
	}
	q, input, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if input != "web" || q.Name != "spam-quantiles" {
		t.Fatalf("plan meta wrong")
	}
	if q.Project != nil {
		t.Fatal("spam script must keep the naive no-projection plan")
	}
	page := cursorOf(Tuple{"u", "big.com", "en", 0.25, Tuple{}, "meta"})
	if q.GroupKey(page) != "big.com" {
		t.Fatalf("group key = %q", q.GroupKey(page))
	}
	if q.SortKey == nil || q.SortKey(page) != 0.25 {
		t.Fatal("quantiles query must order bags by the spam field")
	}
}

func TestParseFilter(t *testing.T) {
	src := `
pages = LOAD 'web' AS (url, domain, language, spam, terms, meta);
en    = FILTER pages BY spam < 0.5;
grps  = GROUP en BY domain;
quant = FOREACH grps GENERATE group, QUANTILES(spam, 4);
STORE quant INTO 'out';
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if q.Filter == nil {
		t.Fatal("plan lost the filter")
	}
	keep := cursorOf(Tuple{"u", "d", "en", 0.2, Tuple{}, "m"})
	drop := cursorOf(Tuple{"u", "d", "en", 0.9, Tuple{}, "m"})
	if !q.Filter(keep) || q.Filter(drop) {
		t.Fatal("filter predicate wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"pages = LOAD 'web';",     // missing AS
		"x = BOGUS y;",            // unknown verb
		"pages = LOAD 'web' AS (", // truncated
		"STORE nothing INTO out;", // unquoted output
		"a = LOAD 'w' AS (f); b = GROUP a BY nosuch; c = FOREACH b GENERATE group, TOPK(f, 1); STORE c INTO 'o';",
		"a = LOAD 'w' AS (f); b = GROUP a BY f; c = FOREACH b GENERATE group, NOSUCHUDF(f, 1); STORE c INTO 'o';",
		"a = LOAD 'w' AS (f); STORE a INTO 'o';", // no GROUP/UDF
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue // lex/parse error: fine
		}
		if _, _, err := s.Plan(); err == nil {
			t.Fatalf("script %q should not plan", strings.TrimSpace(src))
		}
	}
}

func TestParseIsCaseInsensitiveOnKeywords(t *testing.T) {
	src := `
pages = load 'web' as (url, domain, language, spam, terms, meta);
grps  = group pages by domain;
quant = foreach grps generate group, quantiles(spam, 4);
store quant into 'out';
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Plan(); err != nil {
		t.Fatal(err)
	}
}

func TestCmpMatch(t *testing.T) {
	cases := []struct {
		c    int
		op   string
		want bool
	}{
		{0, "==", true}, {1, "==", false},
		{1, "!=", true}, {0, "!=", false},
		{-1, "<", true}, {0, "<", false},
		{0, "<=", true}, {1, "<=", false},
		{1, ">", true}, {0, ">", false},
		{0, ">=", true}, {-1, ">=", false},
		{0, "??", false},
	}
	for _, c := range cases {
		if got := cmpMatch(c.c, c.op); got != c.want {
			t.Fatalf("cmpMatch(%d, %q) = %v", c.c, c.op, got)
		}
	}
}
