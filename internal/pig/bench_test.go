package pig

import (
	"testing"
)

// Wall-clock micro-benchmarks of the tuple codec and the planner.

func BenchmarkTupleEncodeDecode(b *testing.B) {
	t := Tuple{
		"http://www.domain042.com/page/123456", "domain042.com", "en", 0.375,
		Tuple{"term0001", "term0042", "term0007", "term0100"},
		"padding-padding-padding-padding",
	}
	enc := AppendTuple(nil, t)
	b.SetBytes(int64(len(enc)))
	for i := 0; i < b.N; i++ {
		enc = AppendTuple(enc[:0], t)
		got := DecodeTuple(enc)
		if len(got) != len(t) {
			b.Fatal("corrupt")
		}
	}
}

func BenchmarkParsePigLatin(b *testing.B) {
	const src = `
pages = LOAD 'web' AS (url, domain, language, spam, terms, meta);
proj  = FOREACH pages GENERATE language, terms;
grps  = GROUP proj BY language;
top   = FOREACH grps GENERATE group, TOPK(terms, 10);
STORE top INTO 'frequent-anchortext';
`
	for i := 0; i < b.N; i++ {
		s, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}
