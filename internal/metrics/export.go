package metrics

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// textContentType is the Prometheus text exposition content type.
const textContentType = "text/plain; version=0.0.4; charset=utf-8"

// MergedHandler serves several registries as one exposition in the
// Prometheus text format, in argument order. A family registered in more
// than one registry (every shard core builds the same families) gets its
// HELP/TYPE header from the first registry that renders it; later
// registries contribute samples only, which their const labels keep
// distinct. Output is deterministic: within a registry families sort by
// name, children by label key, collector samples by registration then
// emission order — so tests can assert on substrings and diffs between
// scrapes are meaningful. With a single registry it renders exactly
// Expose.
func MergedHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", textContentType)
		var b strings.Builder
		seen := make(map[string]bool)
		for _, r := range regs {
			r.writeTextSeen(&b, seen)
		}
		_, _ = w.Write([]byte(b.String()))
	})
}

// Expose renders the full exposition as a string (test/debug helper;
// the HTTP path uses MergedHandler).
func (r *Registry) Expose() string {
	var b strings.Builder
	r.writeText(&b)
	return b.String()
}

func (r *Registry) writeText(b *strings.Builder) {
	r.writeTextSeen(b, nil)
}

// writeTextSeen renders the registry; seen, when non-nil, records family
// names whose HELP/TYPE headers were already written (the merged
// exposition path) so they render once across registries.
func (r *Registry) writeTextSeen(b *strings.Builder, seen map[string]bool) {
	cl := r.snapshotConstLabels()
	for _, f := range r.sortedFamilies() {
		writeHeader(b, f.name, f.help, f.kind, seen)
		switch {
		case f.counter != nil:
			writeSample(b, f.name, cl, float64(f.counter.Value()))
		case f.gauge != nil:
			writeSample(b, f.name, cl, float64(f.gauge.Value()))
		case f.hist != nil:
			writeHistogram(b, f.name, cl, f.hist)
		case f.counterVec != nil:
			for _, c := range f.counterVec.v.children() {
				writeSample(b, f.name, withConst(cl, c.labels), float64(c.m.Value()))
			}
		case f.histVec != nil:
			for _, c := range f.histVec.v.children() {
				writeHistogram(b, f.name, withConst(cl, c.labels), c.m)
			}
		}
	}
	r.writeCollected(b, cl, seen)
}

// writeCollected runs the collectors and renders their samples grouped
// by family name, emitting each family's HELP/TYPE header once. Within
// a name, samples keep emission order (collectors emit related series
// together); families are sorted by name for determinism.
func (r *Registry) writeCollected(b *strings.Builder, cl []Label, seen map[string]bool) {
	type fam struct {
		help    string
		kind    Kind
		samples []Sample
	}
	byName := make(map[string]*fam)
	var names []string
	for _, c := range r.snapshotCollectors() {
		c(func(s Sample) {
			f, ok := byName[s.Name]
			if !ok {
				f = &fam{help: s.Help, kind: s.Kind}
				byName[s.Name] = f
				names = append(names, s.Name)
			}
			f.samples = append(f.samples, s)
		})
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		writeHeader(b, name, f.help, f.kind, seen)
		for _, s := range f.samples {
			writeSample(b, name, withConst(cl, s.Labels), s.Value)
		}
	}
}

// withConst prepends the registry's const labels to a sample's own. With
// no const labels it returns the sample's labels untouched (no copy).
func withConst(cl, labels []Label) []Label {
	if len(cl) == 0 {
		return labels
	}
	out := make([]Label, 0, len(cl)+len(labels))
	out = append(out, cl...)
	return append(out, labels...)
}

func writeHeader(b *strings.Builder, name, help string, kind Kind, seen map[string]bool) {
	if seen != nil {
		if seen[name] {
			return
		}
		seen[name] = true
	}
	if help != "" {
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(kind.String())
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	cum, sum, count := h.snapshot()
	for i, c := range cum {
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		writeSampleLE(b, name+"_bucket", labels, le, float64(c))
	}
	writeSample(b, name+"_sum", labels, sum)
	writeSample(b, name+"_count", labels, float64(count))
}

func writeSample(b *strings.Builder, name string, labels []Label, v float64) {
	writeSampleLE(b, name, labels, "", v)
}

// writeSampleLE renders one sample line; le, when non-empty, is appended
// as the trailing bucket label.
func writeSampleLE(b *strings.Builder, name string, labels []Label, le string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 || le != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders values the way Prometheus expects: shortest
// round-trip decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
