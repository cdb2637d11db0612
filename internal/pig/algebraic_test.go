package pig

import (
	"fmt"
	"math/rand"
	"testing"

	"spongefiles/internal/spill"
)

// domainTuples builds a skewed corpus: (url, domain) with domain d0
// holding half the tuples and the rest spread across small domains.
func domainTuples(n int) ([]Tuple, map[string]int64) {
	rng := rand.New(rand.NewSource(11))
	want := map[string]int64{}
	var tuples []Tuple
	for i := 0; i < n; i++ {
		dom := "d0.com"
		if rng.Intn(2) == 1 {
			dom = fmt.Sprintf("d%d.com", 1+rng.Intn(40))
		}
		want[dom]++
		tuples = append(tuples, Tuple{fmt.Sprintf("url%d", i), dom})
	}
	return tuples, want
}

func TestAlgebraicCountFoldEndToEnd(t *testing.T) {
	tuples, want := domainTuples(4000)
	q := &GroupQuery{
		Name:      "domaincount",
		GroupKey:  func(t Cursor) string { return t.String(1) },
		Algebraic: CountFold(),
	}
	out, res := runQuery(t, q, tuples, false)
	if len(out) != len(want) {
		t.Fatalf("got %d groups, want %d", len(out), len(want))
	}
	for dom, n := range want {
		got := out[dom]
		if len(got) != 1 || got[0].Int(0) != n {
			t.Fatalf("count[%s] = %v, want %d", dom, got, n)
		}
	}
	// The algebraic plan must run with node combining: co-located map
	// tasks fold their partials before shuffle.
	if res.NodeCombine.Published == 0 {
		t.Fatalf("algebraic query did not node-combine: %+v", res.NodeCombine)
	}
	if res.NodeCombine.SavedBytes() <= 0 {
		t.Fatalf("node combining saved nothing: %+v", res.NodeCombine)
	}
}

func TestAlgebraicCompileSetsNodeCombine(t *testing.T) {
	q := &GroupQuery{
		Name:      "alg",
		GroupKey:  func(t Cursor) string { return t.String(0) },
		Algebraic: CountFold(),
	}
	conf := q.Compile(1<<30, spill.DiskFactory())
	if !conf.NodeCombine || conf.Combine == nil {
		t.Fatalf("algebraic compile: NodeCombine=%v Combine=%v", conf.NodeCombine, conf.Combine != nil)
	}
	h := &GroupQuery{
		Name:     "holistic",
		GroupKey: func(t Cursor) string { return t.String(0) },
		UDF:      TopK(1, 3, 0),
	}
	hconf := h.Compile(1<<30, spill.DiskFactory())
	if hconf.NodeCombine || hconf.Combine != nil {
		t.Fatal("holistic compile must not set a combiner or NodeCombine")
	}
}

func TestAlgebraicSumFoldMatchesHolistic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var tuples []Tuple
	for i := 0; i < 2000; i++ {
		dom := fmt.Sprintf("d%d.com", rng.Intn(5))
		tuples = append(tuples, Tuple{fmt.Sprintf("url%d", i), dom, rng.Float64()})
	}
	// Holistic reference: sum the scores by iterating each group's bag.
	sums := map[string]float64{}
	counts := map[string]int64{}
	for _, tu := range tuples {
		sums[tu.String(1)] += tu.Float(2)
		counts[tu.String(1)]++
	}
	q := &GroupQuery{
		Name:      "domainsum",
		GroupKey:  func(t Cursor) string { return t.String(1) },
		Algebraic: SumFold(2),
	}
	out, _ := runQuery(t, q, tuples, true) // sponge-backed spill factory
	for dom, sum := range sums {
		got := out[dom]
		if len(got) != 1 || got[0].Int(1) != counts[dom] {
			t.Fatalf("sum[%s] = %v, want count %d", dom, got, counts[dom])
		}
		diff := got[0].Float(0) - sum
		if diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("sum[%s] = %v, want %v", dom, got[0].Float(0), sum)
		}
	}
}
