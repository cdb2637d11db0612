package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key="value" pair on a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type seriesKind uint8

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k seriesKind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered metric instance: a metric name plus a fixed
// label set, with the exposition id precomputed at registration so the
// scrape path does no formatting per sample beyond the value itself.
type series struct {
	name string // bare metric name, for TYPE comments
	id   string // name{labels} — the exposition identity
	kind seriesKind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() int64
	hist    *Histogram
	// histogram exposition ids, precomputed: one per bucket (with the
	// le label merged in), plus _sum and _count.
	histBucketIDs []string
	histSumID     string
	histCountID   string
}

// Registry holds labeled metric series with get-or-create semantics:
// registering the same name+labels twice returns the same handle, so
// several components (or several daemons in one process) can share a
// registry without coordinating ownership. All registration goes
// through a mutex; the returned handles are lock-free.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// seriesID renders name{k1="v1",k2="v2"} with labels sorted by key.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) get(name string, labels []Label, kind seriesKind) (*series, bool) {
	id := seriesID(name, labels)
	s, ok := r.series[id]
	if ok {
		if s.kind != kind {
			panic("obs: metric " + id + " re-registered as a different type")
		}
		return s, true
	}
	s = &series{name: name, id: id, kind: kind}
	r.series[id] = s
	return s, false
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.get(name, labels, kindCounter)
	if !ok {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the stored gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.get(name, labels, kindGauge)
	if !ok {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a callback-backed gauge evaluated at snapshot
// time. Re-registering the same series replaces the callback — handy
// when a component is rebuilt (e.g. SetTransport re-wiring peers).
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.get(name, labels, kindGaugeFunc)
	s.gaugeFn = fn
}

// Histogram returns the histogram for name+labels, creating it with the
// given inclusive upper bounds on first use. Later calls ignore bounds
// and return the existing instance.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.get(name, labels, kindHistogram)
	if !ok {
		s.hist = newHistogram(bounds)
		s.histBucketIDs = make([]string, len(s.hist.bounds)+1)
		for i, b := range s.hist.bounds {
			le := L("le", strconv.FormatInt(b, 10))
			s.histBucketIDs[i] = seriesID(name+"_bucket", append(append([]Label{}, labels...), le))
		}
		s.histBucketIDs[len(s.hist.bounds)] = seriesID(name+"_bucket", append(append([]Label{}, labels...), L("le", "+Inf")))
		s.histSumID = seriesID(name+"_sum", labels)
		s.histCountID = seriesID(name+"_count", labels)
	}
	return s.hist
}

// Sample is one exposed series value at snapshot time. Histograms
// flatten into cumulative _bucket samples plus _sum and _count.
type Sample struct {
	ID    string // full series id, e.g. sponge_retries_total{op="read"}
	Value int64
}

// Snapshot returns a point-in-time view of every series, sorted by id.
// GaugeFunc callbacks are evaluated here, under the registry lock.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.series)+8)
	for _, s := range r.series {
		switch s.kind {
		case kindCounter:
			out = append(out, Sample{s.id, s.counter.Value()})
		case kindGauge:
			out = append(out, Sample{s.id, s.gauge.Value()})
		case kindGaugeFunc:
			out = append(out, Sample{s.id, s.gaugeFn()})
		case kindHistogram:
			// _count is the +Inf bucket of the same read, so the two
			// agree under concurrent Observes.
			buckets := s.hist.Buckets()
			for i, cum := range buckets {
				out = append(out, Sample{s.histBucketIDs[i], cum})
			}
			out = append(out, Sample{s.histSumID, s.hist.Sum()})
			out = append(out, Sample{s.histCountID, buckets[len(buckets)-1]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the snapshot value of one series id, or 0, false if it
// is not registered. Intended for tests and table rendering, not hot
// paths.
func (r *Registry) Lookup(id string) (int64, bool) {
	for _, s := range r.Snapshot() {
		if s.ID == id {
			return s.Value, true
		}
	}
	return 0, false
}
