package query

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/monitor"
)

// buildStore seeds a store with a deterministic minute-resolution workload:
// one req.total sample per minute for 10 minutes (values 1..10 seconds of
// E2E), cost.usd at an exactly-representable eighth of the value (so ratio
// expectations hold bitwise), and a labeled variant for f1.
func buildStore() *monitor.Store {
	st := monitor.NewStore(time.Minute, 60)
	for i := 0; i < 10; i++ {
		at := time.Duration(i)*time.Minute + 30*time.Second
		v := float64(i + 1)
		st.Record("req.total", at, v)
		st.Record("cost.usd", at, v/8)
		if i%2 == 0 {
			st.Record(monitor.LabeledSeries("req.total", monitor.Label{Key: "function", Val: "f1"}), at, v)
		}
	}
	return st
}

func evalAt(t *testing.T, e *Engine, q string, at time.Duration) float64 {
	t.Helper()
	x, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return e.Instant(x, at)
}

func TestInstantEval(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	end := e.End()
	if end != 10*time.Minute {
		t.Fatalf("End() = %v", end)
	}
	cases := []struct {
		q    string
		want float64
	}{
		{"req.total", 55},                           // cumulative sum 1..10
		{"count(req.total[10m])", 10},               //
		{"sum(req.total[5m])", 6 + 7 + 8 + 9 + 10},  // trailing 5 windows
		{"max(req.total[10m])", 10},                 //
		{"mean(req.total[2m])", 9.5},                //
		{"rate(req.total[5m])", 40.0 / 300},         // sum/seconds
		{"cost.usd / req.total", 0.125},             // ratio of cumulatives
		{"p50(req.total[10m])", 5},                  // nearest-rank over window means
		{"p99(req.total[10m])", 10},                 //
		{`count(req.total{function="f1"}[10m])`, 5}, // labeled selector
		{"req.total - 55", 0},                       //
		{"req.total / 0", 0},                        // div-by-zero is total
		{"missing.series", 0},                       //
		{"2 * 3 + 1", 7},                            //
		{"-req.total", -55},                         //
	}
	for _, c := range cases {
		if got := evalAt(t, e, c.q, -1); got != c.want {
			t.Errorf("%s = %v, want %v", c.q, got, c.want)
		}
	}
	// Evaluation at an earlier boundary sees only earlier windows.
	if got := evalAt(t, e, "req.total", 3*time.Minute); got != 1+2+3 {
		t.Errorf("req.total @3m = %v, want 6", got)
	}
}

func TestRangeEval(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	x := mustParse(t, "count(req.total[1m])")
	pts := e.Range(x, 0, -1, 0)
	if len(pts) != 11 { // boundaries 0m..10m
		t.Fatalf("got %d points: %v", len(pts), pts)
	}
	if pts[0].V != 0 || pts[1].V != 1 || pts[10].V != 1 {
		t.Fatalf("points = %v", pts)
	}
	// Non-boundary endpoints snap up.
	pts = e.Range(x, 90*time.Second, 3*time.Minute, 0)
	if len(pts) != 2 || pts[0].T != 2*time.Minute || pts[1].T != 3*time.Minute {
		t.Fatalf("snapped points = %v", pts)
	}
}

// A step longer than the span, up to the largest duration, yields only the
// from point: the step is clamped before it is snapped to the resolution,
// which would otherwise wrap around.
func TestRangeHugeStep(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	x := mustParse(t, "count(req.total[1m])")
	for _, step := range []time.Duration{11 * time.Minute, math.MaxInt64 - 1, math.MaxInt64} {
		pts := e.Range(x, 0, -1, step)
		if len(pts) != 1 || pts[0].T != 0 {
			t.Errorf("step %v: points = %v, want only t=0", step, pts)
		}
	}
	// A step that snaps to the span (0m..10m) still reaches the far end.
	if pts := e.Range(x, 0, -1, 9*time.Minute+time.Second); len(pts) != 2 || pts[1].T != 10*time.Minute {
		t.Errorf("step 9m1s: points = %v, want t=0 and t=10m", pts)
	}
}

func TestInstantJSONShape(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	got, err := e.InstantJSON("cost.usd / req.total", -1)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"query":"cost.usd / req.total","type":"instant","at_us":600000000,"value":0.125}`
	if got != want {
		t.Fatalf("InstantJSON = %s, want %s", got, want)
	}
	if _, err := e.InstantJSON("frob(x[1m])", -1); err == nil {
		t.Fatal("bad query did not error")
	}
}

func TestRangeJSONShape(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	got, err := e.RangeJSON("count(req.total[1m])", 0, 2*time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"query":"count(req.total[1m])","type":"range","step_us":60000000,` +
		`"points":[{"t_us":0,"v":0},{"t_us":60000000,"v":1},{"t_us":120000000,"v":1}]}`
	if got != want {
		t.Fatalf("RangeJSON = %s, want %s", got, want)
	}
	if strings.Contains(got, "NaN") {
		t.Fatal("NaN leaked into JSON")
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	if got := e.Instant(Number(3), 0); got != 0 {
		t.Fatalf("nil engine instant = %v", got)
	}
	if pts := e.Range(Number(3), 0, time.Minute, 0); pts != nil {
		t.Fatalf("nil engine range = %v", pts)
	}
}
