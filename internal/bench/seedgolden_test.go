package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spongefiles/internal/media"
)

// seedGolden pins the seed prefetcher's simulated results for one
// benchtab baseline cell, captured from commit 59499b2 (the last commit
// with the single-slot prefetcher) before the readahead ring replaced
// it. The ring at its default depth still reproduces them, so every
// field must match exactly — not approximately.
type seedGolden struct {
	kind            JobKind
	memGB           int64
	runtime         int64
	stragglerInput  int64
	stragglerChunks int64
	medianValue     float64 // 0 = not checked for this job kind
}

var seedGoldens = []seedGolden{
	{Median, 4, 24753854554, 208034304, 199, 497005.355},
	{Median, 16, 20386656936, 208034304, 199, 497005.355},
	{Anchortext, 4, 15388658831, 54804736, 53, 0},
	{Anchortext, 16, 15114658831, 54804736, 53, 0},
	{SpamQuantiles, 4, 19569940017, 77451008, 74, 0},
	{SpamQuantiles, 16, 16436487116, 77451008, 74, 0},
}

// anchortextRows pins the Frequent Anchortext answer of the golden cell,
// (term:count) most frequent first per language. TopK's sketch breaks
// count ties by term at every prune and in the final ranking, so the
// rows are the same in every process and at either memory size.
var anchortextRows = map[string]string{
	"de": "term0009:10 term0034:10 term0063:10 term0083:10 term0329:10 term0047:9 term0057:9 term0006:8 term0052:8 term0089:8",
	"en": "term0014:139 term0049:138 term0008:136 term0032:132 term0043:129 term0034:125 term0038:123 term0000:122 term0012:122 term0028:121",
	"es": "term0066:17 term0002:13 term0017:13 term0046:12 term0093:11 term0155:11 term0000:10 term0004:10 term0011:10 term0015:10",
	"fr": "term0002:13 term0049:12 term0053:11 term0056:11 term0148:11 term0014:10 term0019:10 term0107:10 term0003:9 term0008:9",
	"it": "term0011:14 term0010:12 term0013:12 term0025:11 term0183:11 term0021:10 term0028:10 term0148:10 term0001:9 term0069:9",
	"ja": "term0012:14 term0049:14 term0059:13 term0002:12 term0005:12 term0018:12 term0004:11 term0014:11 term0081:11 term0003:10",
	"pt": "term0016:20 term0020:15 term0026:12 term0032:12 term0065:12 term0115:12 term0009:11 term0015:11 term0018:11 term0029:11",
	"zh": "term0008:14 term0162:12 term0038:11 term0080:10 term0086:10 term0147:10 term0005:9 term0023:9 term0027:9 term0030:9",
}

// TestDefaultReadAheadMatchesSeedGoldens runs all six benchtab baseline
// cells (three jobs × two memory sizes) at the service's default
// readahead depth and holds them to the seed prefetcher's recorded
// results. Any drift in virtual runtime, straggler accounting, or job
// output means the windowed ring changed scheduling and is a bug, not
// noise.
func TestDefaultReadAheadMatchesSeedGoldens(t *testing.T) {
	for _, g := range seedGoldens {
		res := RunMacro(g.kind, MacroConfig{
			NodeMemory: g.memGB * media.GB,
			Sponge:     true,
			SizeFactor: 0.02,
			Workers:    8,
		})
		if int64(res.Runtime) != g.runtime {
			t.Errorf("%s/%dGB: runtime %d, seed golden %d", g.kind, g.memGB, int64(res.Runtime), g.runtime)
		}
		if res.StragglerInput != g.stragglerInput {
			t.Errorf("%s/%dGB: straggler input %d, seed golden %d", g.kind, g.memGB, res.StragglerInput, g.stragglerInput)
		}
		if res.StragglerChunks != g.stragglerChunks {
			t.Errorf("%s/%dGB: straggler chunks %d, seed golden %d", g.kind, g.memGB, res.StragglerChunks, g.stragglerChunks)
		}
		if g.medianValue != 0 && res.MedianValue != g.medianValue {
			t.Errorf("%s/%dGB: median %v, seed golden %v", g.kind, g.memGB, res.MedianValue, g.medianValue)
		}
		if g.kind == Anchortext {
			got := map[string]string{}
			for lang, rows := range res.GroupOut {
				var cells []string
				for _, r := range rows {
					cells = append(cells, fmt.Sprintf("%s:%d", r.String(0), r.Int(1)))
				}
				got[lang] = strings.Join(cells, " ")
			}
			if !reflect.DeepEqual(got, anchortextRows) {
				t.Errorf("%s/%dGB: rows %v, golden %v", g.kind, g.memGB, got, anchortextRows)
			}
		}
	}
}
