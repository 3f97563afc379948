package monitor

import (
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/stats"
)

// StoreFamilies renders every series in a store as OpenMetrics
// count/sum/max families. Labeled series (the LabeledSeries encoding) are
// grouped under their family's TYPE lines with proper OpenMetrics label
// blocks — within a family the unlabeled series (if any) comes first,
// labeled series follow in canonical-name order, and families are emitted
// in sorted order, so a store holding only unlabeled series renders
// byte-identically to the historical per-series writer. The optional
// exemplar callback receives each (store series name, kind) pair — kind is
// "count", "sum", or "max" — and returns an annotation suffix (typically
// obs.Exemplar output) or "".
func StoreFamilies(e *obs.Exposition, st *Store, exemplar func(series, kind string) string) {
	type member struct {
		name   string // full store series name
		labels []Label
	}
	byFam := make(map[string][]member)
	var fams []string
	// Names() is sorted, which within one family already yields the order
	// we emit (the bare family name is a strict prefix of every labeled
	// variant); families themselves are re-sorted below because '{' sorts
	// above letters and could interleave prefix families.
	for _, name := range st.Names() {
		fam, labels := SplitSeries(name)
		if _, ok := byFam[fam]; !ok {
			fams = append(fams, fam)
		}
		byFam[fam] = append(byFam[fam], member{name, labels})
	}
	sort.Strings(fams)
	kinds := []struct {
		kind, suffix, typ string
	}{
		{"count", "_count", "counter"},
		{"sum", "_sum", "gauge"},
		{"max", "_max", "gauge"},
	}
	for _, fam := range fams {
		mn := obs.MetricName(fam)
		for _, k := range kinds {
			lines := make([]string, 0, len(byFam[fam]))
			for _, m := range byFam[fam] {
				tot := st.Total(m.name)
				var val string
				switch k.kind {
				case "count":
					val = strconv.FormatUint(tot.Count, 10)
				case "sum":
					val = obs.FormatFloat(tot.Sum)
				default:
					val = obs.FormatFloat(tot.Max)
				}
				line := obs.Sample(mn+k.suffix, m.labels, val)
				if exemplar != nil {
					line += exemplar(m.name, k.kind)
				}
				lines = append(lines, line)
			}
			e.Family(mn+k.suffix, k.typ, lines...)
		}
	}
}

// SummaryFamilies renders the run-level families every monitored
// exposition carries after its store families: per-objective firing state
// and fire counts, cumulative E2E latency quantiles, and the ledger's
// per-phase dollar decomposition. Each family is omitted when it has
// nothing to report (no objectives, no latency samples, no invocations).
func SummaryFamilies(e *obs.Exposition, counts []SLOFireCount, latency *stats.Histogram, total Phase) {
	firing := make([]string, 0, len(counts))
	fired := make([]string, 0, len(counts))
	for _, c := range counts {
		v := "0"
		if c.Firing {
			v = "1"
		}
		slo := []Label{{Key: "slo", Val: c.Name}}
		firing = append(firing, obs.Sample("lambdatrim_slo_firing", slo, v))
		fired = append(fired, obs.Sample("lambdatrim_slo_fired_total", slo, strconv.Itoa(c.Fired)))
	}
	e.Family("lambdatrim_slo_firing", "gauge", firing...)
	e.Family("lambdatrim_slo_fired_total", "counter", fired...)

	if latency != nil && latency.Count() > 0 {
		quantile := func(q float64, s string) string {
			return obs.Sample("lambdatrim_latency_seconds", []Label{{Key: "quantile", Val: s}},
				obs.FormatFloat(latency.Quantile(q)))
		}
		e.Family("lambdatrim_latency_seconds", "gauge",
			quantile(0.50, "0.5"), quantile(0.95, "0.95"), quantile(0.99, "0.99"))
	}

	if total.Invocations > 0 {
		phase := func(name string, usd float64) string {
			return obs.Sample("lambdatrim_cost_phase_usd", []Label{{Key: "phase", Val: name}}, obs.FormatFloat(usd))
		}
		e.Family("lambdatrim_cost_phase_usd", "gauge",
			phase("init", total.InitUSD), phase("handler", total.ExecUSD),
			phase("idle", total.IdleUSD), phase("restore", total.RestoreUSD))
	}
}

// OpenMetrics renders the monitor state as an OpenMetrics text exposition:
// per-series cumulative count/sum/max, then the SummaryFamilies. Series,
// label values, and quantiles are emitted in sorted/fixed order, so the
// exposition is byte-stable for a fixed sample sequence. Safe on a nil
// monitor (empty exposition, still terminated).
func (m *Monitor) OpenMetrics() []byte {
	var e obs.Exposition
	if m != nil {
		StoreFamilies(&e, m.store, nil)
		SummaryFamilies(&e, m.FireCounts(), m.Latency(), m.Ledger().Total())
	}
	return e.Bytes()
}
