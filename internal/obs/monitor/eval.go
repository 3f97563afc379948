package monitor

import "time"

// SampleSink folds samples into one label set's built-in series
// (req.total/req.error/req.cold/cost.usd) plus one bad-event series per
// objective that carries its own threshold. It is the streaming half of
// the monitor split out for sharded replay: per-worker stores fed through
// sinks and merged in a fixed order hold byte-for-byte the same rollups a
// single Monitor observing the global sample sequence would hold, because
// every series value is a per-sample add and windows partition samples by
// time.
//
// A sink writes through single-writer handles, so it carries the Handle
// contract: its holder must be the store's only user while it folds, or
// hold the store's lock. Fold is the one sample-to-series routing: the
// fleet shards and Monitor both go through it.
type SampleSink struct {
	total, errors, cold, cost Series
	bad                       []sloSeries
}

// sloSeries is one objective's bad-event series.
type sloSeries struct {
	def SLO
	h   Series
}

// Sink returns a sample sink over the built-in series under the given
// labels; the label encoding is paid here, once, not per sample. Each
// objective whose bad events have their own series (latency,
// per-invocation cost, availability) adds one handle; the others count
// the shared series. slos should already carry their final parameters
// (withDefaults does not affect which series a sample lands in, so
// applying it is optional here). Objectives are fleet-wide, so labeled
// sinks pass none. Nil on a nil store.
func (s *Store) Sink(slos []SLO, labels ...Label) *SampleSink {
	if s == nil {
		return nil
	}
	handle := func(family string) Series {
		return Series{st: s, name: LabeledSeries(family, labels...)}
	}
	k := &SampleSink{
		total:  handle(seriesTotal),
		errors: handle(seriesErrors),
		cold:   handle(seriesCold),
		cost:   handle(seriesCost),
	}
	for _, def := range slos {
		switch def.Kind {
		case KindErrorRate, KindColdFraction, KindCostRate:
			// shared series above
		default:
			k.bad = append(k.bad, sloSeries{def: def, h: Series{st: s, name: def.badSeries()}})
		}
	}
	return k
}

// Fold records one invocation sample completed at virtual time at.
func (k *SampleSink) Fold(at time.Duration, s *Sample) {
	if k == nil {
		return
	}
	k.total.Record(at, s.E2E.Seconds())
	if s.Class != "ok" {
		k.errors.Record(at, 1)
	}
	if s.Cold {
		k.cold.Record(at, 1)
	}
	k.cost.Record(at, s.CostUSD)
	for i := range k.bad {
		if b := &k.bad[i]; b.def.bad(s) {
			b.h.Record(at, 1)
		}
	}
}

// burnOver computes an objective's burn rate over the trailing window ending
// at boundary T, reading the given store. Windows are clipped at the start
// of the run so early evaluations use the data that exists instead of
// diluting it with emptiness. This is the one burn-rate implementation: the
// live Monitor and the post-hoc EvaluateSLOs sweep both call it, so the two
// evaluation modes cannot drift apart.
func burnOver(st *Store, def SLO, T, window time.Duration) float64 {
	from := T - window
	if from < 0 {
		from = 0
	}
	if def.Kind == KindCostRate {
		if def.BudgetUSD <= 0 {
			return 0
		}
		hours := (T - from).Hours()
		if hours <= 0 {
			return 0
		}
		cost := st.Range(seriesCost, from, T)
		return (cost.Sum / hours) / def.BudgetUSD
	}
	total := st.Range(seriesTotal, from, T)
	if total.Count == 0 {
		return 0
	}
	bad := st.Range(def.badSeries(), from, T)
	frac := float64(bad.Count) / float64(total.Count)
	return frac / def.Budget
}

// EvaluateSLOs replays the boundary-tick evaluation over a finished store:
// every resolution boundary from the first one through the boundary that
// closes the window holding `latest` (the newest sample time) is evaluated
// in order, exactly as a live Monitor would have evaluated it while the
// samples streamed in. The two are equivalent because a boundary at T only
// reads windows strictly before T, and windows partition samples by
// timestamp — so evaluating after the fact sees the same rollups the online
// evaluation saw, provided the ring capacity covers the whole replay (size
// the store so nothing slides out).
//
// This is what makes sharded replay's telemetry exact rather than
// approximate: workers fold samples into private stores through sinks,
// the stores merge window-wise in a fixed order, and the alert log is
// recovered from the merged result byte-identically to a sequential run.
func EvaluateSLOs(st *Store, slos []SLO, latest time.Duration) ([]AlertEvent, []SLOFireCount) {
	res := st.Resolution()
	if res <= 0 || len(slos) == 0 {
		return nil, nil
	}
	states := make([]sloState, 0, len(slos))
	for _, def := range slos {
		states = append(states, sloState{def: def.withDefaults(res)})
	}
	if latest < 0 {
		latest = 0
	}
	end := (latest/res + 1) * res
	var alerts []AlertEvent
	for T := res; T <= end; T += res {
		for i := range states {
			st_ := &states[i]
			burnS := burnOver(st, st_.def, T, st_.def.ShortWindow)
			burnL := burnOver(st, st_.def, T, st_.def.LongWindow)
			firing := burnS >= st_.def.Burn && burnL >= st_.def.Burn
			if firing != st_.firing {
				st_.firing = firing
				if firing {
					st_.fired++
				}
				alerts = append(alerts, AlertEvent{
					At: T, SLO: st_.def.Name, Firing: firing,
					BurnShort: burnS, BurnLong: burnL,
				})
			}
		}
	}
	counts := make([]SLOFireCount, 0, len(states))
	for i := range states {
		counts = append(counts, SLOFireCount{
			Name: states[i].def.Name, Kind: states[i].def.Kind,
			Fired: states[i].fired, Firing: states[i].firing,
		})
	}
	return alerts, counts
}

// RenderAlertLog renders alert transitions as the canonical text log, one
// line per event ("" when no transitions occurred) — the same format
// Monitor.AlertLog produces.
func RenderAlertLog(alerts []AlertEvent) string {
	var b []byte
	for _, e := range alerts {
		b = append(b, e.String()...)
		b = append(b, '\n')
	}
	return string(b)
}
