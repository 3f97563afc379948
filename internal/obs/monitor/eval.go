package monitor

import (
	"sort"
	"time"
)

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
// the shared series. slos need not carry their defaults: withDefaults
// does not affect which series a sample lands in. Objectives are
// fleet-wide, so labeled sinks pass none. Nil on a nil store.
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

// sloState tracks one objective's evaluation state.
type sloState struct {
	def    SLO
	firing bool
	fired  int // fire transitions, for summaries
}

// sloMachine is the one alert state machine. At each resolution boundary
// T it computes every objective's short- and long-window burn over a store
// (burnOver), fires when both reach the objective's threshold, resolves
// when either falls below it, and logs each transition as an AlertEvent.
// The live Monitor steps it as its virtual clock crosses boundaries;
// EvaluateSLOs steps it over a finished store.
type sloMachine struct {
	states []sloState
	alerts []AlertEvent
}

// newSLOMachine starts every objective not firing, with zero fields taking
// the defaults for the store resolution res.
func newSLOMachine(slos []SLO, res time.Duration) sloMachine {
	var sm sloMachine
	for _, def := range slos {
		sm.states = append(sm.states, sloState{def: def.withDefaults(res)})
	}
	return sm
}

// step evaluates every objective at boundary T over st and records the
// transitions, in configuration order.
func (sm *sloMachine) step(st *Store, T time.Duration) {
	for i := range sm.states {
		s := &sm.states[i]
		burnS := burnOver(st, s.def, T, s.def.ShortWindow)
		burnL := burnOver(st, s.def, T, s.def.LongWindow)
		firing := burnS >= s.def.Burn && burnL >= s.def.Burn
		if firing == s.firing {
			continue
		}
		s.firing = firing
		if firing {
			s.fired++
		}
		sm.alerts = append(sm.alerts, AlertEvent{
			At: T, SLO: s.def.Name, Firing: firing,
			BurnShort: burnS, BurnLong: burnL,
		})
	}
}

// fireCounts reports per-objective fire counts in configuration order.
func (sm *sloMachine) fireCounts() []SLOFireCount {
	out := make([]SLOFireCount, 0, len(sm.states))
	for _, s := range sm.states {
		out = append(out, SLOFireCount{
			Name: s.def.Name, Kind: s.def.Kind,
			Fired: s.fired, Firing: s.firing,
		})
	}
	return out
}

// firing returns the names of the currently-firing objectives, sorted.
func (sm *sloMachine) firing() []string {
	var out []string
	for _, s := range sm.states {
		if s.firing {
			out = append(out, s.def.Name)
		}
	}
	sort.Strings(out)
	return out
}

// EvaluateSLOs replays the boundary-tick evaluation over a finished store:
// every resolution boundary from the first one through the boundary that
// closes the window holding `latest` (the newest sample time) is evaluated
// in order, exactly as a live Monitor would have evaluated it while the
// samples streamed in. The two are equivalent because both step the same
// sloMachine, a boundary at T only reads windows strictly before T, and
// windows partition samples by timestamp — so evaluating after the fact
// sees the same rollups the online evaluation saw, provided no window has
// slid out of the ring (fleet.Replay sizes its stores to hold the whole
// replay and refuses to evaluate when a sample fell outside them).
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
	sm := newSLOMachine(slos, res)
	if latest < 0 {
		latest = 0
	}
	end := (latest/res + 1) * res
	for T := res; T <= end; T += res {
		sm.step(st, T)
	}
	return sm.alerts, sm.fireCounts()
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
