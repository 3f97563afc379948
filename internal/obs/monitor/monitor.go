package monitor

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Built-in series fed by every observed sample. Additional per-SLO bad
// series ("slo.<name>.bad") appear as objectives require them.
const (
	seriesTotal  = "req.total" // every invocation; value = E2E seconds
	seriesErrors = "req.error" // failed invocations; value = 1
	seriesCold   = "req.cold"  // cold starts; value = 1
	seriesCost   = "cost.usd"  // every invocation; value = Eq.-1 bill in USD
)

// Sample is one completed invocation as the monitor sees it: the virtual
// phase durations, the billing decomposition, and the outcome class. The
// producer (internal/faas, or the keep-alive pool replay) builds samples;
// the monitor never reaches back into simulator types.
type Sample struct {
	// Function names the deployed function (or fleet member).
	Function string
	// Cold marks invocations that paid an init phase.
	Cold bool
	// Class is the faas failure class string ("ok" when successful).
	Class string
	// Init, Exec, and E2E are the measured virtual durations.
	Init, Exec, E2E time.Duration
	// BilledInit, BilledExec, and Billed decompose the billed duration:
	// Billed is the provider-rounded billed window, BilledInit/BilledExec
	// the measured phases inside it (their shortfall vs Billed is the
	// granularity rounding the ledger attributes to idle).
	BilledInit, BilledExec, Billed time.Duration
	// MemoryMB is the configured memory size.
	MemoryMB int
	// CostUSD is the invocation's Eq.-1 bill; RestoreFeeUSD the SnapStart
	// per-restore component inside it.
	CostUSD, RestoreFeeUSD float64
}

// Config parameterizes a Monitor.
type Config struct {
	// Resolution is the TSDB window size (default DefaultResolution).
	Resolution time.Duration
	// Windows is the TSDB ring capacity (default DefaultWindows).
	Windows int
	// SLOs are the objectives to evaluate; zero fields take engine
	// defaults derived from Resolution.
	SLOs []SLO
	// DashboardEvery renders a text dashboard frame at this virtual-time
	// interval (0 disables frames).
	DashboardEvery time.Duration
	// LabelSeries additionally records the built-in series under a
	// {function="..."} label per sample (the LabeledSeries encoding), which
	// is what mql label matchers select on. Off by default: labeled series
	// multiply store cardinality by the function count.
	LabelSeries bool
}

// Monitor watches a replay on the simulated timeline: samples land in the
// TSDB and ledger as they are observed, and SLO evaluation runs at every
// resolution boundary the virtual clock crosses — so alerts fire at
// deterministic virtual times, independent of host scheduling. All methods
// are nil-safe; a nil *Monitor is "monitoring disabled".
type Monitor struct {
	mu     sync.Mutex
	cfg    Config
	store  *Store
	ledger *Ledger
	states []sloState
	sink   *SampleSink // built-in and per-SLO series
	alerts []AlertEvent
	frames []string
	hist   *stats.Histogram // cumulative E2E seconds

	labeled map[string]*SampleSink // per-function labeled sinks (LabelSeries)

	nextTick  time.Duration
	nextFrame time.Duration // negative when frames are disabled
	latest    time.Duration
	finished  bool
}

// New creates a monitor. Zero-value config fields take defaults.
func New(cfg Config) *Monitor {
	if cfg.Resolution <= 0 {
		cfg.Resolution = DefaultResolution
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	m := &Monitor{
		cfg:       cfg,
		store:     NewStore(cfg.Resolution, cfg.Windows),
		ledger:    NewLedger(),
		hist:      stats.NewHistogram(),
		nextTick:  cfg.Resolution,
		nextFrame: -1,
	}
	if cfg.DashboardEvery > 0 {
		m.nextFrame = cfg.DashboardEvery
	}
	defs := make([]SLO, 0, len(cfg.SLOs))
	for _, def := range cfg.SLOs {
		full := def.withDefaults(cfg.Resolution)
		m.states = append(m.states, sloState{def: full})
		defs = append(defs, full)
	}
	m.sink = m.store.Sink(defs)
	return m
}

// Observe records one completed invocation at virtual time `at` (typically
// the invocation's completion time). Boundary crossings between the
// previous sample and this one are evaluated first, so alert and dashboard
// output depend only on the (at, sample) sequence.
func (m *Monitor) Observe(at time.Duration, s Sample) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceLocked(at)
	if at > m.latest {
		m.latest = at
	}
	// The monitor is its store's only writer (under m.mu); folding under
	// the store's lock keeps concurrent readers of the store safe.
	m.store.mu.Lock()
	m.sink.Fold(at, &s)
	if m.cfg.LabelSeries && s.Function != "" {
		k, ok := m.labeled[s.Function]
		if !ok {
			k = m.store.Sink(nil, Label{Key: "function", Val: s.Function})
			if m.labeled == nil {
				m.labeled = make(map[string]*SampleSink)
			}
			m.labeled[s.Function] = k
		}
		k.Fold(at, &s)
	}
	m.store.mu.Unlock()
	m.ledger.Record(&s)
	m.hist.Observe(s.E2E.Seconds())
}

// Finish flushes pending boundary evaluations past the last observed
// sample and renders the final dashboard frame. Idempotent.
func (m *Monitor) Finish() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished {
		return
	}
	m.finished = true
	// Evaluate every boundary up to and including the one that closes the
	// window holding the last sample.
	res := m.cfg.Resolution
	end := (m.latest/res + 1) * res
	m.advanceLocked(end)
	if m.nextFrame >= 0 {
		m.frameLocked(end)
	}
}

// advanceLocked replays boundary crossings (SLO ticks and dashboard
// frames, interleaved in time order) up to and including `at`.
func (m *Monitor) advanceLocked(at time.Duration) {
	for {
		tick := m.nextTick <= at
		frame := m.nextFrame >= 0 && m.nextFrame <= at
		switch {
		case tick && (!frame || m.nextTick <= m.nextFrame):
			m.evalTickLocked(m.nextTick)
			m.nextTick += m.cfg.Resolution
		case frame:
			m.frameLocked(m.nextFrame)
			m.nextFrame += m.cfg.DashboardEvery
		default:
			return
		}
	}
}

// evalTickLocked evaluates every objective at boundary T and records alert
// transitions.
func (m *Monitor) evalTickLocked(T time.Duration) {
	for i := range m.states {
		st := &m.states[i]
		burnS := m.burn(st.def, T, st.def.ShortWindow)
		burnL := m.burn(st.def, T, st.def.LongWindow)
		firing := burnS >= st.def.Burn && burnL >= st.def.Burn
		if firing != st.firing {
			st.firing = firing
			if firing {
				st.fired++
			}
			m.alerts = append(m.alerts, AlertEvent{
				At: T, SLO: st.def.Name, Firing: firing,
				BurnShort: burnS, BurnLong: burnL,
			})
		}
	}
}

// frameLocked renders one dashboard frame at virtual time T: cumulative
// request/error/cold counts, E2E percentiles, the Eq.-1 bill so far, and
// the currently-firing objectives.
func (m *Monitor) frameLocked(T time.Duration) {
	total := m.store.Total(seriesTotal)
	errs := m.store.Total(seriesErrors)
	cold := m.store.Total(seriesCold)
	cost := m.store.Total(seriesCost)
	coldPct := 0.0
	if total.Count > 0 {
		coldPct = 100 * float64(cold.Count) / float64(total.Count)
	}
	firing := sortedFiring(m.states)
	firingStr := "-"
	if len(firing) > 0 {
		firingStr = strings.Join(firing, ",")
	}
	m.frames = append(m.frames, fmt.Sprintf(
		"[%s] req=%-6d err=%-4d cold=%-5d cold%%=%-5.1f p50=%.3fs p95=%.3fs max=%.3fs cost=$%.9f firing=%s\n",
		fmtOffset(T), total.Count, errs.Count, cold.Count, coldPct,
		m.hist.Quantile(0.50), m.hist.Quantile(0.95), total.Max,
		cost.Sum, firingStr))
}

// Alerts returns a copy of the alert transitions so far, in virtual-time
// order.
func (m *Monitor) Alerts() []AlertEvent {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AlertEvent(nil), m.alerts...)
}

// AlertLog renders the alert transitions as the canonical text log, one
// line per event ("" when no transitions occurred).
func (m *Monitor) AlertLog() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range m.Alerts() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Dashboard returns the concatenated dashboard frames rendered so far.
func (m *Monitor) Dashboard() string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return strings.Join(m.frames, "")
}

// SLOFireCount summarizes one objective's outcome over the run.
type SLOFireCount struct {
	Name   string
	Kind   Kind
	Fired  int  // fire transitions over the run
	Firing bool // still firing at the end
}

// FireCounts reports per-objective fire counts in configuration order.
func (m *Monitor) FireCounts() []SLOFireCount {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SLOFireCount, 0, len(m.states))
	for i := range m.states {
		st := &m.states[i]
		out = append(out, SLOFireCount{
			Name: st.def.Name, Kind: st.def.Kind,
			Fired: st.fired, Firing: st.firing,
		})
	}
	return out
}

// Store exposes the underlying TSDB (nil when monitoring is disabled).
func (m *Monitor) Store() *Store {
	if m == nil {
		return nil
	}
	return m.store
}

// Ledger exposes the cost-attribution ledger (nil when monitoring is
// disabled).
func (m *Monitor) Ledger() *Ledger {
	if m == nil {
		return nil
	}
	return m.ledger
}

// Latency returns a merged copy of the cumulative E2E histogram.
func (m *Monitor) Latency() *stats.Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := stats.NewHistogram()
	cp.Merge(m.hist)
	return cp
}
