package pig

import (
	"fmt"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// Wall-clock micro-benchmarks of the tuple codec, the planner and the
// Frequent Anchortext UDF.

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

// BenchmarkTopK runs TopK's two passes, with the table size the macro
// Anchortext job uses, over an in-memory bag of 10,000 Zipf-drawn term
// lists.
func BenchmarkTopK(b *testing.B) {
	vocab := make([]string, 20000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%05d", i)
	}
	bagRig(b, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 1<<30, 1<<20)
		bag := mm.NewBag("en")
		addZipfTerms(bag, 1, vocab, 10000, 4)
		uctx := &UDFContext{P: p, Task: &mapreduce.TaskContext{P: p}, MM: mm}
		udf := TopK(1, 10, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			udf(uctx, "en", bag, func(Tuple) {})
		}
	})
}
