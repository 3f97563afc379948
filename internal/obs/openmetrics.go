package obs

import (
	"strconv"
	"strings"
	"time"
)

// This file is the one OpenMetrics text writer. Every exposition in the
// repository (the registry snapshot, the monitor and fleet stores, the
// rollout controller) is built through Exposition, so name sanitizing,
// float formatting, label blocks, and the "# EOF" terminator each have a
// single implementation.

// Label is one key="value" pair of an exposition label block.
type Label struct {
	Key string
	Val string
}

// MetricName sanitizes a registry or series name into an OpenMetrics
// metric name: characters outside [a-zA-Z0-9_] become '_', under the
// shared "lambdatrim_" namespace.
func MetricName(s string) string {
	var b strings.Builder
	b.WriteString("lambdatrim_")
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// FormatFloat renders a sample value: the shortest 'g' form that
// round-trips.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Sample renders one sample line: the metric name, its label block (none
// when labels is empty), and the value. Label values are written
// verbatim.
func Sample(name string, labels []Label, value string) string {
	return name + LabelBlock(labels) + " " + value
}

// LabelBlock renders labels as `{k="v",k2="v2"}` in the given order, or ""
// when there are none. Values are written verbatim: producers must not put
// '"' or newlines in them.
func LabelBlock(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Val)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Exemplar renders an exemplar suffix for a sample line:
// " # {labels} value timestamp", with the timestamp in seconds of
// simulated time.
func Exemplar(labels []Label, value float64, ts time.Duration) string {
	block := LabelBlock(labels)
	if block == "" {
		block = "{}"
	}
	return " # " + block + " " + FormatFloat(value) + " " + FormatFloat(ts.Seconds())
}

// Exposition accumulates an OpenMetrics text exposition family by family,
// in call order. The zero value is empty and ready to use.
type Exposition struct {
	b strings.Builder
}

// Family writes one metric family: its "# TYPE" line, then each sample
// line (as rendered by Sample, optionally with an Exemplar suffix). A
// family without samples is omitted.
func (e *Exposition) Family(name, typ string, samples ...string) {
	if len(samples) == 0 {
		return
	}
	e.b.WriteString("# TYPE ")
	e.b.WriteString(name)
	e.b.WriteByte(' ')
	e.b.WriteString(typ)
	e.b.WriteByte('\n')
	for _, s := range samples {
		e.b.WriteString(s)
		e.b.WriteByte('\n')
	}
}

// Bytes returns the exposition terminated by "# EOF".
func (e *Exposition) Bytes() []byte {
	return []byte(e.b.String() + "# EOF\n")
}

// OpenMetrics renders the snapshot as an OpenMetrics text exposition:
// counters as counter families, gauges as gauge families, and histograms
// as gauge families carrying count/sum and the snapshot quantiles as
// labeled samples. The snapshot is already name-sorted, so the exposition
// is byte-stable. An empty snapshot yields just the EOF terminator.
func (s Snapshot) OpenMetrics() []byte {
	var e Exposition
	for _, c := range s.Counters {
		n := MetricName(c.Name)
		e.Family(n, "counter", Sample(n+"_total", nil, strconv.FormatInt(c.Value, 10)))
	}
	for _, g := range s.Gauges {
		n := MetricName(g.Name)
		e.Family(n, "gauge", Sample(n, nil, FormatFloat(g.Value)))
	}
	for _, h := range s.Histograms {
		n := MetricName(h.Name)
		e.Family(n+"_count", "counter", Sample(n+"_count", nil, strconv.FormatUint(h.Count, 10)))
		e.Family(n+"_sum", "gauge", Sample(n+"_sum", nil, FormatFloat(h.Sum)))
		e.Family(n, "gauge",
			Sample(n, []Label{{"quantile", "0.5"}}, FormatFloat(h.P50)),
			Sample(n, []Label{{"quantile", "0.95"}}, FormatFloat(h.P95)),
			Sample(n, []Label{{"quantile", "0.99"}}, FormatFloat(h.P99)))
	}
	return e.Bytes()
}
