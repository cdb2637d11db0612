package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText writes the registry in Prometheus text exposition format:
// a # TYPE comment per metric name followed by `id value` lines, all
// sorted, so two scrapes of identical state are byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	samples := r.Snapshot()
	types := r.typeByName()

	// Emit a TYPE comment the first time each bare metric name appears.
	seen := make(map[string]bool, len(types))
	for _, s := range samples {
		name := bareName(s.ID)
		if t, ok := types[name]; ok && !seen[name] {
			seen[name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, t); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", s.ID, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// Text renders WriteText to a string.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b) // strings.Builder never errors
	return b.String()
}

// typeByName maps bare metric name -> exposition type, including the
// _bucket/_sum/_count families of histograms.
func (r *Registry) typeByName() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	types := make(map[string]string, len(r.series))
	for _, s := range r.series {
		if s.kind == kindHistogram {
			types[s.name] = "histogram"
			types[s.name+"_bucket"] = "histogram"
			types[s.name+"_sum"] = "histogram"
			types[s.name+"_count"] = "histogram"
			continue
		}
		types[s.name] = s.kind.typeName()
	}
	return types
}

// bareName strips the label block from a series id.
func bareName(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}

// ParseText parses text exposition output back into series id -> value.
// It is the inverse of WriteText, which writes only integers; # comment
// lines and blank lines are skipped, and malformed lines — a value that
// is not an integer among them — are reported rather than dropped so a
// truncated or foreign scrape fails loudly.
func ParseText(text string) (map[string]int64, error) {
	out := make(map[string]int64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("obs: metrics line %d: no value: %q", ln+1, line)
		}
		id := strings.TrimSpace(line[:sp])
		val := line[sp+1:]
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: bad value %q", ln+1, val)
		}
		out[id] = v
	}
	return out, nil
}

// MergeSamples sums several parsed scrapes into one series id -> value
// map. Counters from different nodes add; for the scenario harness's
// merged evidence the producers keep their series disjoint (sponge_* on
// the parent, spongewire_* on the children), so gauges are not
// double-merged in practice.
func MergeSamples(maps ...map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range maps {
		for id, v := range m {
			out[id] += v
		}
	}
	return out
}
