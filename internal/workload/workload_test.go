package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spongefiles/internal/media"
	"spongefiles/internal/pig"
)

func TestSkewnessKnownCases(t *testing.T) {
	// Symmetric data: skewness ≈ 0.
	sym := []float64{1, 2, 3, 4, 5, 6, 7}
	if s := Skewness(sym); math.Abs(s) > 1e-9 {
		t.Fatalf("symmetric skewness = %f", s)
	}
	// Right-tailed data: strongly positive.
	right := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 100}
	if s := Skewness(right); s < 1 {
		t.Fatalf("right-tailed skewness = %f, want > 1", s)
	}
	// Left-tailed: strongly negative.
	left := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 1}
	if s := Skewness(left); s > -1 {
		t.Fatalf("left-tailed skewness = %f, want < -1", s)
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Fatal("short input should give 0")
	}
	if Skewness([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("zero variance should give 0")
	}
}

// Property: skewness is invariant under positive affine transforms and
// negates under reflection.
func TestPropertySkewnessAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := Skewness(xs)
		scaled := make([]float64, len(xs))
		neg := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = 3*x + 7
			neg[i] = -x
		}
		return math.Abs(Skewness(scaled)-s) < 1e-6 && math.Abs(Skewness(neg)+s) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	pts := CDF(xs, []float64{0.2, 0.5, 0.9, 1.0})
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
	}
	if pts[len(pts)-1].Value != 9 {
		t.Fatalf("CDF max = %f", pts[len(pts)-1].Value)
	}
}

func TestWebCorpusShares(t *testing.T) {
	w := DefaultWebCorpus(64)
	w.TotalVirtual = 64 * media.MB // small sample for the test
	g := w.newPageGen(9)
	domainBytes := map[string]int{}
	langBytes := map[string]int{}
	total := 0
	n := int(w.Records())
	for i := 0; i < n; i++ {
		pg := pig.DecodeTuple(g.record(int64(i)))
		sz := w.RecordReal()
		domainBytes[pg.String(1)] += sz
		langBytes[pg.String(2)] += sz
		total += sz
	}
	top := 0
	for _, b := range domainBytes {
		if b > top {
			top = b
		}
	}
	topShare := float64(top) / float64(total)
	if topShare < 0.2 || topShare > 0.4 {
		t.Fatalf("top domain share = %.2f, want ≈ 0.30", topShare)
	}
	enShare := float64(langBytes["en"]) / float64(total)
	if enShare < 0.6 || enShare > 0.8 {
		t.Fatalf("english share = %.2f, want ≈ 0.71", enShare)
	}
}

func TestWebCorpusRecordSchemaAndSize(t *testing.T) {
	w := DefaultWebCorpus(64)
	rec := w.newPageGen(1).record(7)
	tu := pig.DecodeTuple(rec)
	if len(tu) != 6 || tu.String(0) != "http://www."+tu.String(1)+"/page/7" {
		t.Fatalf("tuple schema wrong: %v", tu[:5])
	}
	if lang := tu.String(2); len(lang) != 2 {
		t.Fatalf("language = %q", lang)
	}
	if spam := tu.Float(3); spam < 0 || spam >= 1 {
		t.Fatalf("spam score = %v", spam)
	}
	if len(tu.Nested(4)) != w.TermsPerPage || len(tu.Nested(4).String(0)) != len("term0000") {
		t.Fatalf("terms wrong: %v", tu.Nested(4))
	}
	want := w.RecordReal()
	if got := len(rec); got < want-32 || got > want+32 {
		t.Fatalf("serialized record = %d real bytes, want ≈ %d", got, want)
	}
}

// TestWebCorpusRecordsPinned holds the generator to the bytes it has
// always produced: the digests were taken from the Sprintf-and-boxed-
// tuple generator this one replaced. 1200 domains exercises the %03d
// padding on a four-digit domain.
func TestWebCorpusRecordsPinned(t *testing.T) {
	for domains, want := range map[int]string{
		100:  "9f1a039df1f056d59b5590b585e4d9dbf5639e6c7b6b42a918fd4f480275ecf3",
		1200: "b554a087dd18916fee6a248bb758abe218fb0bc5c9c8d5270bfc83d9f60709b9",
	} {
		w := DefaultWebCorpus(64)
		w.TotalVirtual = 64 * media.MB
		w.Domains = domains
		w.init()
		in := w.Input("/x", 3)
		h := sha256.New()
		for split := 0; split < 3; split++ {
			in.MakeRecords(split)(func(k, v []byte) { h.Write(v) })
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%d domains: records digest %s, want %s", domains, got, want)
		}
	}
}

func TestWebCorpusDeterministic(t *testing.T) {
	w := DefaultWebCorpus(64)
	a, b := w.newPageGen(3), w.newPageGen(3)
	for i := int64(0); i < 100; i++ {
		if !bytes.Equal(a.record(i), b.record(i)) {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestNumbersDeterministicAndBounded(t *testing.T) {
	n := DefaultNumbers(64)
	if n.Records() != 10*media.GB/(16*media.KB) {
		t.Fatalf("records = %d", n.Records())
	}
	for i := int64(0); i < 1000; i++ {
		v := n.Value(i)
		if v != n.Value(i) || v < 0 || v >= 1e6 {
			t.Fatalf("value(%d) = %f", i, v)
		}
	}
}

func TestJobPopulationAnchors(t *testing.T) {
	p := DefaultJobPopulation()
	p.Jobs = 5000
	jobs := p.Generate()
	all := AllTaskInputs(jobs)
	med := Quantile(all, 0.5)
	max := Quantile(all, 1.0)
	// Figure 1(a): max is many orders of magnitude above the median.
	orders := math.Log10(max / med)
	if orders < 5 {
		t.Fatalf("max/median spans only %.1f orders of magnitude", orders)
	}
	if max < 50*float64(media.GB) {
		t.Fatalf("tail never reaches tens of GB: max = %.0f", max)
	}
	// Figure 1(b): a large fraction of jobs are highly skewed.
	sk := JobSkewness(jobs)
	highly := 0
	for _, s := range sk {
		if s > 1 || s < -1 {
			highly++
		}
	}
	frac := float64(highly) / float64(len(sk))
	if frac < 0.25 {
		t.Fatalf("only %.0f%% of jobs highly skewed, want a big fraction", frac*100)
	}
}

func TestJobPopulationDeterministic(t *testing.T) {
	p := DefaultJobPopulation()
	p.Jobs = 200
	a, b := p.Generate(), p.Generate()
	for i := range a {
		if len(a[i].TaskInputs) != len(b[i].TaskInputs) || a[i].TaskInputs[0] != b[i].TaskInputs[0] {
			t.Fatal("population not deterministic")
		}
	}
}
