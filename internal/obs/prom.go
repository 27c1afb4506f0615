package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text exposition, format 0.0.4: the one writer both daemons
// render /metrics with, and the one reader the soak tools and tests scrape
// it with. Label values are written with Go quoting (%q), which the reader
// undoes.

// PromWriter buffers one exposition. Every method appends to the buffer;
// WriteTo sends it.
type PromWriter struct {
	b strings.Builder
}

// Family opens a metric family: its HELP and TYPE lines. typ is counter,
// gauge or histogram.
func (p *PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one series of the open family. labels are key, value
// pairs, written in order.
func (p *PromWriter) Sample(name string, v uint64, labels ...string) {
	p.series(name, labels)
	fmt.Fprintf(&p.b, " %d\n", v)
}

// Counter writes a family of one unlabelled counter series.
func (p *PromWriter) Counter(name, help string, v uint64) {
	p.Family(name, "counter", help)
	p.Sample(name, v)
}

// Gauge writes a family of one unlabelled gauge series.
func (p *PromWriter) Gauge(name, help string, v uint64) {
	p.Family(name, "gauge", help)
	p.Sample(name, v)
}

// Histogram writes one histogram series of the open family: a _bucket per
// bound plus +Inf, then _sum and _count, all under labels.
func (p *PromWriter) Histogram(name string, h HistSnapshot, labels ...string) {
	le := append(labels[:len(labels):len(labels)], "le", "")
	for i, bound := range h.Bounds {
		le[len(le)-1] = strconv.FormatFloat(bound, 'g', -1, 64)
		p.Sample(name+"_bucket", h.Buckets[i], le...)
	}
	le[len(le)-1] = "+Inf"
	p.Sample(name+"_bucket", h.Buckets[len(h.Buckets)-1], le...)
	p.series(name+"_sum", labels)
	fmt.Fprintf(&p.b, " %s\n", strconv.FormatFloat(h.Sum, 'g', -1, 64))
	p.Sample(name+"_count", h.Count, labels...)
}

func (p *PromWriter) series(name string, labels []string) {
	p.b.WriteString(name)
	if len(labels) == 0 {
		return
	}
	p.b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			p.b.WriteByte(',')
		}
		fmt.Fprintf(&p.b, "%s=%q", labels[i], labels[i+1])
	}
	p.b.WriteByte('}')
}

// WriteTo sends the buffered exposition to w.
func (p *PromWriter) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, p.b.String())
	return int64(n), err
}

// Flag is a boolean gauge's value: 1 for true, 0 for false.
func Flag(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Family is one metric family read back from an exposition.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one series line of an exposition.
type Sample struct {
	Series string // name{labels} as written: the key Values uses
	Name   string
	Labels []Label
	Value  float64
}

// Label is one key="value" pair, the value unquoted.
type Label struct{ Key, Value string }

// Exposition is a parsed exposition, its families in the order written.
type Exposition []Family

var (
	// sampleLine is one sample: a metric name, optional {labels}, and a
	// number (int, float, or ±Inf/NaN).
	sampleLine = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? ([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$`)
	labelPair = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)=("(?:[^"\\]|\\.)*")`)
	metaLine  = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
)

// ParseExposition reads a text exposition strictly: every family opens
// with one HELP line followed by its TYPE line, each sample belongs to the
// family opened last (a histogram's _bucket, _sum and _count included),
// and any other line that is not a comment is an error.
func ParseExposition(r io.Reader) (Exposition, error) {
	var exp Exposition
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		var cur *Family
		if len(exp) > 0 {
			cur = &exp[len(exp)-1]
		}
		if m := metaLine.FindStringSubmatch(line); m != nil {
			switch {
			case m[1] == "HELP" && !seen[m[2]]:
				seen[m[2]] = true
				exp = append(exp, Family{Name: m[2], Help: m[3]})
			case m[1] == "HELP" || cur == nil || cur.Name != m[2] || cur.Type != "":
				return nil, fmt.Errorf("line %d: %s of %s repeated or not after its HELP", n, m[1], m[2])
			default:
				cur.Type = m[3]
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d is not valid exposition syntax: %q", n, line)
		}
		if cur == nil || cur.Type == "" || !cur.owns(m[1]) {
			return nil, fmt.Errorf("line %d: sample %s outside its family's HELP and TYPE", n, m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d value: %v", n, err)
		}
		s := Sample{Series: line[:len(line)-len(m[3])-1], Name: m[1], Value: v}
		for _, lp := range labelPair.FindAllStringSubmatch(m[2], -1) {
			val, err := strconv.Unquote(lp[2])
			if err != nil {
				return nil, fmt.Errorf("line %d label %s: %v", n, lp[1], err)
			}
			s.Labels = append(s.Labels, Label{lp[1], val})
		}
		cur.Samples = append(cur.Samples, s)
	}
	return exp, sc.Err()
}

// owns reports whether a sample named name belongs to the family.
func (f *Family) owns(name string) bool {
	if f.Type != "histogram" {
		return name == f.Name
	}
	suffix, ok := strings.CutPrefix(name, f.Name)
	return ok && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
}

// Values maps every sample's series, as written, to its value.
func (e Exposition) Values() map[string]float64 {
	out := map[string]float64{}
	for _, f := range e {
		for _, s := range f.Samples {
			out[s.Series] = s.Value
		}
	}
	return out
}
