package monitor

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestStoreRecordRangeTotal(t *testing.T) {
	s := NewStore(time.Second, 10)
	s.Record("x", 500*time.Millisecond, 1)
	s.Record("x", 1500*time.Millisecond, 2)
	s.Record("x", 1700*time.Millisecond, 4)

	if got := s.Range("x", 0, time.Second); got.Count != 1 || got.Sum != 1 {
		t.Errorf("window 0 = %+v", got)
	}
	if got := s.Range("x", time.Second, 2*time.Second); got.Count != 2 || got.Sum != 6 || got.Max != 4 {
		t.Errorf("window 1 = %+v", got)
	}
	if got := s.Range("x", 0, 2*time.Second); got.Count != 3 || got.Sum != 7 {
		t.Errorf("full range = %+v", got)
	}
	if got := s.Total("x"); got.Count != 3 || got.Sum != 7 || got.Max != 4 {
		t.Errorf("total = %+v", got)
	}
	// Missing series and empty ranges are zero.
	if got := s.Range("y", 0, time.Minute); got.Count != 0 {
		t.Errorf("missing series = %+v", got)
	}
	if got := s.Range("x", time.Second, time.Second); got.Count != 0 {
		t.Errorf("empty range = %+v", got)
	}
}

func TestStoreRingEviction(t *testing.T) {
	s := NewStore(time.Second, 4)
	s.Record("x", 0, 1)
	// Jump far ahead: the ring slides, old windows fall off.
	s.Record("x", 10*time.Second, 2)
	if got := s.Range("x", 0, time.Second); got.Count != 0 {
		t.Errorf("evicted window still visible: %+v", got)
	}
	if got := s.Total("x"); got.Count != 2 || got.Sum != 3 {
		t.Errorf("total lost evicted samples: %+v", got)
	}
	// A sample older than the ring's reach is dropped from windows but
	// kept in the total.
	s.Record("x", time.Second, 8)
	if got := s.Dropped("x"); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := s.Total("x"); got.Count != 3 || got.Sum != 11 {
		t.Errorf("total after drop: %+v", got)
	}
	// Stale ring slots must not leak into reused windows.
	if got := s.Range("x", 8*time.Second, 11*time.Second); got.Count != 1 || got.Sum != 2 {
		t.Errorf("reused windows = %+v", got)
	}
}

func TestStoreMergeMatchesSequential(t *testing.T) {
	seq := NewStore(time.Second, 8)
	a := NewStore(time.Second, 8)
	b := NewStore(time.Second, 8)
	type sample struct {
		at time.Duration
		v  float64
	}
	samples := []sample{
		{0, 1}, {1500 * time.Millisecond, 2}, {2 * time.Second, 3},
		{5 * time.Second, 4}, {5500 * time.Millisecond, 5}, {7 * time.Second, 6},
	}
	for i, smp := range samples {
		seq.Record("x", smp.at, smp.v)
		if i%2 == 0 {
			a.Record("x", smp.at, smp.v)
		} else {
			b.Record("x", smp.at, smp.v)
		}
	}
	a.Merge(b)
	for w := time.Duration(0); w < 8*time.Second; w += time.Second {
		want := seq.Range("x", w, w+time.Second)
		got := a.Range("x", w, w+time.Second)
		if got != want {
			t.Errorf("window %v: merged %+v != sequential %+v", w, got, want)
		}
	}
	if a.Total("x") != seq.Total("x") {
		t.Errorf("merged total %+v != %+v", a.Total("x"), seq.Total("x"))
	}
	// Geometry mismatch is an explicit error, with nothing folded.
	other := NewStore(time.Minute, 8)
	other.Record("x", 0, 100)
	if err := a.Merge(other); err == nil {
		t.Error("geometry-mismatched merge should error")
	}
	if a.Total("x") != seq.Total("x") {
		t.Error("geometry-mismatched merge changed the store")
	}
}

// Satellite regression: every geometry mismatch (resolution, capacity, or
// both) must be rejected with an error and leave the destination untouched,
// while matched geometry merges cleanly.
func TestStoreMergeGeometryMismatch(t *testing.T) {
	mk := func(res time.Duration, windows int) *Store {
		st := NewStore(res, windows)
		st.Record("x", 0, 1)
		return st
	}
	dst := mk(time.Second, 8)
	want := dst.Total("x")
	cases := []*Store{
		mk(time.Minute, 8),  // resolution differs
		mk(time.Second, 16), // capacity differs
		mk(time.Minute, 16), // both differ
	}
	for i, src := range cases {
		if err := dst.Merge(src); err == nil {
			t.Errorf("case %d: mismatched merge returned nil error", i)
		}
		if dst.Total("x") != want {
			t.Errorf("case %d: mismatched merge mutated the destination", i)
		}
	}
	if err := dst.Merge(mk(time.Second, 8)); err != nil {
		t.Errorf("matched-geometry merge errored: %v", err)
	}
	if got := dst.Total("x").Count; got != 2 {
		t.Errorf("matched merge count = %d, want 2", got)
	}
	// Nil receiver/operand keep the nil-monitor no-op semantics.
	var nilStore *Store
	if err := nilStore.Merge(dst); err != nil {
		t.Errorf("nil receiver merge errored: %v", err)
	}
	if err := dst.Merge(nil); err != nil {
		t.Errorf("nil operand merge errored: %v", err)
	}
}

// Satellite regression: negative timestamps clamp into window 0 — they stay
// queryable (first window, cumulative total) instead of aliasing ring slots
// through negative index arithmetic.
func TestStoreNegativeTimestampsClampToWindowZero(t *testing.T) {
	st := NewStore(time.Second, 8)
	st.Record("x", -5*time.Second, 3)
	st.Record("x", -time.Nanosecond, 4)
	st.Record("x", 0, 5)
	first := st.Range("x", 0, time.Second)
	if first.Count != 3 || first.Sum != 12 {
		t.Errorf("window 0 = %+v, want all three clamped samples", first)
	}
	if tot := st.Total("x"); tot.Count != 3 || tot.Sum != 12 {
		t.Errorf("total = %+v, want 3 samples", tot)
	}
	if d := st.Dropped("x"); d != 0 {
		t.Errorf("dropped = %d, want 0 (clamped, not dropped)", d)
	}
	// A negative `from` in Range clamps the same way.
	if got := st.Range("x", -time.Minute, time.Second); got != first {
		t.Errorf("negative-from range %+v != window-0 range %+v", got, first)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var s *Store
	s.Record("x", 0, 1)
	s.Merge(NewStore(0, 0))
	if s.Range("x", 0, time.Hour).Count != 0 || s.Total("x").Count != 0 {
		t.Error("nil store should read zero")
	}
	if s.Names() != nil || s.Resolution() != 0 || s.Dropped("x") != 0 {
		t.Error("nil store accessors should be zero")
	}
}

// alertScenario drives a monitor through a bad burst followed by recovery
// and returns it finished.
func alertScenario() *Monitor {
	m := New(Config{
		Resolution: time.Second,
		SLOs: []SLO{{
			Name: "lat", Kind: KindLatency, Threshold: 100 * time.Millisecond,
			Budget: 0.1, ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second,
		}},
		DashboardEvery: 5 * time.Second,
	})
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	// Seconds 0-3: every request violates the threshold → burn 10.
	for i := 0; i < 8; i++ {
		m.Observe(at(0.5*float64(i)), Sample{Function: "f", Class: "ok", E2E: 500 * time.Millisecond, CostUSD: 1e-7})
	}
	// Seconds 4-9: all fast → burn decays to 0.
	for i := 0; i < 12; i++ {
		m.Observe(at(4+0.5*float64(i)), Sample{Function: "f", Class: "ok", E2E: 10 * time.Millisecond, CostUSD: 1e-8})
	}
	m.Finish()
	return m
}

func TestSLOAlertFiresAndResolves(t *testing.T) {
	m := alertScenario()
	alerts := m.Alerts()
	if len(alerts) < 2 {
		t.Fatalf("want fire+resolve, got %d alerts: %q", len(alerts), m.AlertLog())
	}
	if !alerts[0].Firing || alerts[0].SLO != "lat" {
		t.Errorf("first transition should fire lat: %+v", alerts[0])
	}
	last := alerts[len(alerts)-1]
	if last.Firing {
		t.Errorf("final transition should resolve: %+v", last)
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i].At < alerts[i-1].At {
			t.Errorf("alerts out of order: %v after %v", alerts[i].At, alerts[i-1].At)
		}
	}
	fc := m.FireCounts()
	if len(fc) != 1 || fc[0].Fired < 1 || fc[0].Firing {
		t.Errorf("fire counts = %+v", fc)
	}
}

// The sharded-replay contract: folding the same sample stream into a bare
// store through a SampleSink and sweeping it post-hoc with EvaluateSLOs must
// reproduce the live Monitor's alert transitions and fire counts exactly —
// boundary evaluation at T only reads windows strictly before T, so online
// and after-the-fact evaluation see identical rollups.
func TestEvaluateSLOsMatchesLiveMonitor(t *testing.T) {
	slos := []SLO{
		{Name: "lat", Kind: KindLatency, Threshold: 100 * time.Millisecond,
			Budget: 0.1, ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second},
		{Name: "errs", Kind: KindErrorRate, Budget: 0.2,
			ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second},
		{Name: "spend", Kind: KindCostRate, BudgetUSD: 1e-4,
			ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second},
	}
	m := New(Config{Resolution: time.Second, SLOs: slos})
	st := NewStore(time.Second, DefaultWindows)
	sink := st.Sink(slos) // the test is st's only user
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	var latest time.Duration
	feed := func(ts time.Duration, smp Sample) {
		m.Observe(ts, smp)
		sink.Fold(ts, &smp)
		if ts > latest {
			latest = ts
		}
	}
	for i := 0; i < 8; i++ {
		class := "ok"
		if i%3 == 0 {
			class = "handler-error"
		}
		feed(at(0.5*float64(i)), Sample{Function: "f", Class: class,
			E2E: 500 * time.Millisecond, CostUSD: 2e-7})
	}
	for i := 0; i < 12; i++ {
		feed(at(4+0.5*float64(i)), Sample{Function: "f", Class: "ok",
			E2E: 10 * time.Millisecond, CostUSD: 1e-9})
	}
	m.Finish()

	alerts, counts := EvaluateSLOs(st, slos, latest)
	if got, want := RenderAlertLog(alerts), m.AlertLog(); got != want {
		t.Errorf("post-hoc alert log differs from live monitor:\ngot:\n%s\nwant:\n%s", got, want)
	}
	live := m.FireCounts()
	if len(counts) != len(live) {
		t.Fatalf("fire counts: %d vs live %d", len(counts), len(live))
	}
	for i := range counts {
		if counts[i] != live[i] {
			t.Errorf("fire count %d: %+v vs live %+v", i, counts[i], live[i])
		}
	}
	if RenderAlertLog(alerts) == "" {
		t.Error("scenario should produce at least one transition")
	}
}

func TestMonitorDeterministicOutput(t *testing.T) {
	a, b := alertScenario(), alertScenario()
	if a.AlertLog() != b.AlertLog() {
		t.Error("alert log differs across identical runs")
	}
	if a.Dashboard() != b.Dashboard() {
		t.Error("dashboard differs across identical runs")
	}
	if !bytes.Equal(a.OpenMetrics(), b.OpenMetrics()) {
		t.Error("OpenMetrics differs across identical runs")
	}
	if a.Dashboard() == "" {
		t.Error("dashboard should have frames")
	}
	om := string(a.OpenMetrics())
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics not terminated: %q", om[len(om)-20:])
	}
	for _, want := range []string{
		"lambdatrim_req_total_count", "lambdatrim_cost_usd_sum",
		"lambdatrim_slo_fired_total", `lambdatrim_latency_seconds{quantile="0.95"}`,
		"lambdatrim_cost_phase_usd",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics missing %q", want)
		}
	}
}

func TestMultiWindowSuppressesShortBurst(t *testing.T) {
	// One bad second inside a long good history: the short window burns,
	// but the long window stays under threshold — no alert.
	m := New(Config{
		Resolution: time.Second,
		SLOs: []SLO{{
			Name: "lat", Kind: KindLatency, Threshold: 100 * time.Millisecond,
			Budget: 0.5, ShortWindow: time.Second, LongWindow: 10 * time.Second,
		}},
	})
	for i := 0; i < 20; i++ {
		m.Observe(time.Duration(i)*500*time.Millisecond, Sample{Function: "f", Class: "ok", E2E: 10 * time.Millisecond})
	}
	m.Observe(10500*time.Millisecond, Sample{Function: "f", Class: "ok", E2E: time.Second})
	for i := 23; i < 40; i++ {
		m.Observe(time.Duration(i)*500*time.Millisecond, Sample{Function: "f", Class: "ok", E2E: 10 * time.Millisecond})
	}
	m.Finish()
	if log := m.AlertLog(); log != "" {
		t.Errorf("short burst should not page through the long window:\n%s", log)
	}
}

func TestLedgerDecomposition(t *testing.T) {
	l := NewLedger()
	l.Record(&Sample{
		Function: "f", Cold: true, Class: "ok",
		BilledInit: 600 * time.Millisecond, BilledExec: 300 * time.Millisecond,
		Billed: time.Second, CostUSD: 1e-6,
	})
	ph := l.Function("f")
	if ph.Invocations != 1 || ph.ColdStarts != 1 || ph.Errors != 0 {
		t.Errorf("counts = %+v", ph)
	}
	// 60/30/10 split of the duration bill.
	if got := ph.InitUSD; got < 5.9e-7 || got > 6.1e-7 {
		t.Errorf("InitUSD = %v", got)
	}
	if got := ph.ExecUSD; got < 2.9e-7 || got > 3.1e-7 {
		t.Errorf("ExecUSD = %v", got)
	}
	if got := ph.IdleUSD; got < 0.9e-7 || got > 1.1e-7 {
		t.Errorf("IdleUSD = %v", got)
	}
	if total := ph.CostUSD(); total != 1e-6 {
		t.Errorf("phases do not sum to the bill: %v", total)
	}
	// Restore fee is attributed separately from duration dollars.
	l.Record(&Sample{Function: "g", Cold: true, Class: "ok",
		BilledExec: time.Second, Billed: time.Second, CostUSD: 3e-7, RestoreFeeUSD: 1e-7})
	g := l.Function("g")
	if g.RestoreUSD != 1e-7 {
		t.Errorf("RestoreUSD = %v", g.RestoreUSD)
	}
	if got := g.ExecUSD; got < 1.9e-7 || got > 2.1e-7 {
		t.Errorf("ExecUSD with restore fee = %v", got)
	}

	tot := l.Total()
	if tot.Invocations != 2 || tot.ColdStarts != 2 {
		t.Errorf("total = %+v", tot)
	}
	table := l.RenderTable()
	if !strings.Contains(table, "TOTAL") || !strings.Contains(table, "f") {
		t.Errorf("table missing rows:\n%s", table)
	}
}

func TestLedgerMergeAndAttribution(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	s := Sample{Function: "f", Cold: true, Class: "oom",
		BilledInit: time.Second, Billed: time.Second, CostUSD: 2e-6}
	a.Record(&s)
	b.Record(&s)
	a.Merge(b)
	ph := a.Function("f")
	if ph.Invocations != 2 || ph.Errors != 2 || ph.CostUSD() != 4e-6 {
		t.Errorf("merged = %+v", ph)
	}

	mods := a.AttributeInit("f", []ModuleWeight{
		{Name: "numpy", Weight: 3}, {Name: "json", Weight: 1}, {Name: "neg", Weight: -1},
	})
	if len(mods) != 2 {
		t.Fatalf("module rows = %+v", mods)
	}
	if mods[0].Name != "numpy" || mods[0].Share != 0.75 {
		t.Errorf("top module = %+v", mods[0])
	}
	sum := mods[0].USD + mods[1].USD
	if diff := sum - (ph.InitUSD + ph.RestoreUSD); diff > 1e-18 || diff < -1e-18 {
		t.Errorf("module dollars %v != init dollars %v", sum, ph.InitUSD+ph.RestoreUSD)
	}
	if a.AttributeInit("missing", []ModuleWeight{{Name: "x", Weight: 1}}) != nil {
		t.Error("attribution of an unknown function should be nil")
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("p95=800ms, err=2%, cold=30%, costinv=2e-7, costrate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 5 {
		t.Fatalf("parsed %d SLOs", len(slos))
	}
	if slos[0].Kind != KindLatency || slos[0].Threshold != 800*time.Millisecond {
		t.Errorf("p95 = %+v", slos[0])
	}
	if slos[1].Kind != KindErrorRate || slos[1].Budget != 0.02 {
		t.Errorf("err = %+v", slos[1])
	}
	if slos[2].Kind != KindColdFraction || slos[2].Budget != 0.3 {
		t.Errorf("cold = %+v", slos[2])
	}
	if slos[3].Kind != KindCostPerInvocation || slos[3].BudgetUSD != 2e-7 {
		t.Errorf("costinv = %+v", slos[3])
	}
	if slos[4].Kind != KindCostRate || slos[4].BudgetUSD != 0.5 {
		t.Errorf("costrate = %+v", slos[4])
	}
	if empty, err := ParseSLOs(""); err != nil || len(empty) != 0 {
		t.Errorf("empty spec: %v %v", empty, err)
	}
	for _, bad := range []string{"p95", "p95=abc", "err=200%", "err=0", "nope=1", "costinv=x"} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.Observe(0, Sample{})
	m.Finish()
	if m.AlertLog() != "" || m.Dashboard() != "" || m.Alerts() != nil {
		t.Error("nil monitor should be empty")
	}
	if m.Store() != nil || m.Ledger() != nil || m.FireCounts() != nil {
		t.Error("nil monitor accessors should be nil")
	}
	if got := string(m.OpenMetrics()); got != "# EOF\n" {
		t.Errorf("nil OpenMetrics = %q", got)
	}
	var l *Ledger
	l.Record(&Sample{})
	l.Merge(NewLedger())
	if l.RenderTable() != "" || l.Functions() != nil {
		t.Error("nil ledger should be empty")
	}
}

func TestMonitorFinishIdempotent(t *testing.T) {
	m := alertScenario()
	before := m.Dashboard()
	m.Finish()
	m.Finish()
	if m.Dashboard() != before {
		t.Error("repeated Finish must not add frames")
	}
}

func TestCostRateBurn(t *testing.T) {
	m := New(Config{
		Resolution: time.Minute,
		SLOs: []SLO{{
			Name: "burnrate", Kind: KindCostRate, BudgetUSD: 0.001, // $/hour
			ShortWindow: 5 * time.Minute, LongWindow: 10 * time.Minute, Burn: 1,
		}},
	})
	// $0.0001 per minute = $0.006/hour = 6× the budgeted rate.
	for i := 0; i < 12; i++ {
		m.Observe(time.Duration(i)*time.Minute, Sample{Function: "f", Class: "ok", CostUSD: 1e-4})
	}
	m.Finish()
	alerts := m.Alerts()
	if len(alerts) == 0 || !alerts[0].Firing {
		t.Fatalf("cost-rate SLO should fire: %q", m.AlertLog())
	}
	if alerts[0].BurnShort < 5 || alerts[0].BurnShort > 7 {
		t.Errorf("burn = %v, want ~6", alerts[0].BurnShort)
	}
}
