package workload

import (
	"math"
	"math/rand"
	"strconv"

	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
)

// WebCorpus describes the synthetic web-crawl dataset of §4.2.1: URL
// records with domain, language, spam score, and anchortext terms. Domain
// sizes follow a Zipf distribution scaled so the largest domain holds
// TopDomainShare of the corpus (the paper scaled its sample so the
// largest domain matched its true web size); languages are skewed toward
// English; anchortext terms are Zipfian over a fixed vocabulary.
type WebCorpus struct {
	// TotalVirtual is the corpus size (the paper's is ~10 GB).
	TotalVirtual int64
	// RecordVirtual is each page record's virtual footprint; the real
	// record is RecordVirtual/Scale bytes. 16 KB keeps record counts
	// tractable at scale 64 while preserving all byte-denominated
	// behaviour (a coarser record granularity, documented in DESIGN.md).
	RecordVirtual int64
	Scale         int64

	Domains        int
	TopDomainShare float64 // fraction of pages in the largest domain
	EnglishShare   float64
	Languages      []string
	VocabSize      int
	TermsPerPage   int
	Seed           int64

	domainCum []float64
	langCum   []float64
}

// DefaultWebCorpus mirrors the paper's dataset at the given scale: 10 GB,
// 100 domains with the biggest holding ~30% (the spam-quantiles
// straggler's 3 GB input), English at ~71% (the frequent-anchortext
// straggler's 2.5 GB of projected input).
func DefaultWebCorpus(scale int64) *WebCorpus {
	w := &WebCorpus{
		TotalVirtual:   10 * media.GB,
		RecordVirtual:  24 * media.KB,
		Scale:          scale,
		Domains:        100,
		TopDomainShare: 0.30,
		EnglishShare:   0.71,
		Languages:      []string{"en", "fr", "de", "es", "pt", "it", "ja", "zh"},
		VocabSize:      5000,
		TermsPerPage:   8,
		Seed:           1,
	}
	w.init()
	return w
}

func (w *WebCorpus) init() {
	// Domain sizes: domain i gets weight 1/(i+1)^s, with s solved
	// roughly so domain 0 holds TopDomainShare. A simple normalization
	// against the harmonic-like sum suffices for the shape.
	s := 1.0
	for iter := 0; iter < 40; iter++ {
		var sum float64
		for i := 0; i < w.Domains; i++ {
			sum += math.Pow(float64(i+1), -s)
		}
		share := 1.0 / sum
		if math.Abs(share-w.TopDomainShare) < 0.001 {
			break
		}
		if share < w.TopDomainShare {
			s += 0.05
		} else {
			s -= 0.05
		}
	}
	var sum float64
	w.domainCum = make([]float64, w.Domains)
	for i := 0; i < w.Domains; i++ {
		sum += math.Pow(float64(i+1), -s)
		w.domainCum[i] = sum
	}
	for i := range w.domainCum {
		w.domainCum[i] /= sum
	}
	// Languages: English first, the rest share the remainder evenly.
	w.langCum = make([]float64, len(w.Languages))
	rest := (1 - w.EnglishShare) / float64(len(w.Languages)-1)
	cum := 0.0
	for i := range w.Languages {
		if i == 0 {
			cum += w.EnglishShare
		} else {
			cum += rest
		}
		w.langCum[i] = cum
	}
}

// Records returns the total record count.
func (w *WebCorpus) Records() int64 { return w.TotalVirtual / w.RecordVirtual }

// RecordReal returns the real bytes per record.
func (w *WebCorpus) RecordReal() int { return int(w.RecordVirtual / w.Scale) }

func pickCum(cum []float64, u float64) int {
	for i, c := range cum {
		if u <= c {
			return i
		}
	}
	return len(cum) - 1
}

// pageGen generates one split's page records, each serialized straight
// into a buffer it reuses: a record is valid until the next call.
type pageGen struct {
	w     *WebCorpus
	rng   *rand.Rand
	buf   []byte // the serialized record
	str   []byte // the string field being formatted
	terms []int  // this page's term ids
	zeros []byte // source of the padding field
}

func (w *WebCorpus) newPageGen(seed int64) *pageGen {
	return &pageGen{
		w:     w,
		rng:   rand.New(rand.NewSource(seed)),
		terms: make([]int, w.TermsPerPage),
		zeros: make([]byte, w.RecordReal()),
	}
}

// appendPadded appends v in decimal, zero-padded to width digits.
func appendPadded(dst []byte, v, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// record generates the idx-th page deterministically and returns it in
// the Pig record schema:
// (url, domain, language, spamScore, anchortext tuple, padding).
func (g *pageGen) record(idx int64) []byte {
	w, rng := g.w, g.rng
	d := pickCum(w.domainCum, rng.Float64())
	l := pickCum(w.langCum, rng.Float64())
	for j := range g.terms {
		// Zipfian term choice via an exponential transform.
		t := int(rng.ExpFloat64() * float64(w.VocabSize) / 12)
		if t >= w.VocabSize {
			t = w.VocabSize - 1
		}
		g.terms[j] = t
	}
	// Spam score correlates weakly with domain rank.
	spam := rng.Float64()*0.8 + float64(d%5)*0.04

	b := pig.AppendTupleHeader(g.buf[:0], 6)
	str := append(g.str[:0], "http://www.domain"...)
	str = appendPadded(str, d, 3)
	str = append(str, ".com/page/"...)
	str = strconv.AppendInt(str, idx, 10)
	b = pig.AppendString(b, str)
	str = append(str[:0], "domain"...)
	str = appendPadded(str, d, 3)
	str = append(str, ".com"...)
	b = pig.AppendString(b, str)
	b = pig.AppendString(b, w.Languages[l])
	b = pig.AppendFloat(b, spam)
	b = pig.AppendTupleHeader(b, len(g.terms))
	for _, t := range g.terms {
		str = appendPadded(append(str[:0], "term"...), t, 4)
		b = pig.AppendString(b, str)
	}
	// Pad the serialized record to the target real size with a crawl
	// metadata blob, so byte accounting matches the corpus geometry.
	pad := w.RecordReal() - (len(b) + 20)
	if pad < 0 {
		pad = 0
	}
	b = pig.AppendString(b, g.zeros[:pad])
	g.buf, g.str = b, str
	return b
}

// Input builds the MapReduce input for the corpus: the DFS file must be
// registered by the caller with size TotalVirtual; splits generate
// serialized page tuples deterministically. An emitted record is valid
// until the callback returns.
func (w *WebCorpus) Input(file string, splits int) mapreduce.Input {
	total := w.Records()
	return mapreduce.Input{
		File: file,
		MakeRecords: func(split int) mapreduce.RecordGen {
			return func(emit mapreduce.Emit) {
				per := total / int64(splits)
				lo := int64(split) * per
				hi := lo + per
				if split == splits-1 {
					hi = total
				}
				g := w.newPageGen(w.Seed + int64(split)*7919)
				for i := lo; i < hi; i++ {
					emit(nil, g.record(i))
				}
			}
		},
	}
}

// Numbers describes the median job's dataset: the paper computes the
// median of one billion numbers, a ~10 GB single-reducer input. Each
// record carries one float64 (a coarse-grained stand-in for a batch of
// numbers; the byte volume, which drives all spilling behaviour, is
// exact).
type Numbers struct {
	TotalVirtual  int64
	RecordVirtual int64
	Scale         int64
	Seed          int64
}

// DefaultNumbers returns the 10 GB median input at the given scale.
func DefaultNumbers(scale int64) *Numbers {
	return &Numbers{
		TotalVirtual:  10 * media.GB,
		RecordVirtual: 16 * media.KB,
		Scale:         scale,
		Seed:          2,
	}
}

// Records returns the record count.
func (n *Numbers) Records() int64 { return n.TotalVirtual / n.RecordVirtual }

// RecordReal returns real bytes per record.
func (n *Numbers) RecordReal() int { return int(n.RecordVirtual / n.Scale) }

// Value returns the idx-th number (deterministic).
func (n *Numbers) Value(idx int64) float64 {
	x := uint64(idx+n.Seed) * 0x9E3779B97F4A7C15
	x ^= x >> 33
	return float64(x%1_000_000_000) / 1000.0
}

// Input builds the MapReduce input: records are (8-byte value, padding).
func (n *Numbers) Input(file string, splits int) mapreduce.Input {
	total := n.Records()
	realRec := n.RecordReal()
	return mapreduce.Input{
		File: file,
		MakeRecords: func(split int) mapreduce.RecordGen {
			return func(emit mapreduce.Emit) {
				per := total / int64(splits)
				lo := int64(split) * per
				hi := lo + per
				if split == splits-1 {
					hi = total
				}
				pad := realRec - 8 - 16 // record framing overhead
				if pad < 0 {
					pad = 0
				}
				buf := make([]byte, 8+pad)
				for i := lo; i < hi; i++ {
					v := math.Float64bits(n.Value(i))
					for b := 0; b < 8; b++ {
						buf[b] = byte(v >> (8 * b))
					}
					emit(nil, buf)
				}
			}
		},
	}
}

// DecodeNumber extracts the value from a record emitted by Input.
func DecodeNumber(rec []byte) float64 {
	var v uint64
	for b := 0; b < 8; b++ {
		v |= uint64(rec[b]) << (8 * b)
	}
	return math.Float64frombits(v)
}
