package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileCountsSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	p := percentile(xs, 90)
	if p.Value != 90 || p.N != 100 || p.Above != 10 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90, n 100, 10 above", p)
	}
	if !p.Qualified() {
		t.Fatalf("p90 with 10 samples above should qualify")
	}
	if xs[0] != 100 {
		t.Fatalf("percentile reordered its input")
	}

	p = percentile(xs[:99], 90)
	if p.Qualified() {
		t.Fatalf("p90 of 99 samples has %d above and should not qualify", p.Above)
	}
	if !strings.Contains(p.String(), "unqualified") {
		t.Fatalf("unqualified p90 reads %q", p)
	}
}

func TestPercentileTiesAndEdges(t *testing.T) {
	p := percentile([]float64{5, 5, 5, 7}, 50)
	if p.Value != 5 || p.Above != 1 {
		t.Fatalf("p50 of 5,5,5,7 = %+v, want 5 with 1 above", p)
	}
	if p := percentile([]float64{3}, 99); p.Value != 3 || p.N != 1 || p.Above != 0 {
		t.Fatalf("p99 of one sample = %+v", p)
	}
	if p := percentile(nil, 50); p.N != 0 || p.Value != 0 {
		t.Fatalf("percentile of nothing = %+v", p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", m)
	}
}

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Op: 1, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 30),  // 20
		span(3, 1, "b", 25, 50),  // overlaps a by 5: covers 30..50
		span(4, 1, "c", 90, 120), // clipped to 90..100
		span(5, 2, "a.child", 12, 18),
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 25, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	ran := false
	tr.wrap("x", 0, 1, func() { ran = true })
	if id := tr.begin("y", 0, 1); id != 0 || !ran {
		t.Fatalf("nil tracer: begin = %d, ran = %v", id, ran)
	}
	tr.end(0)

	tr = newTracer()
	root := tr.begin("root", 0, 7)
	tr.wrap("child", root, 7, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	by := selfByOp(tr.spans)
	if _, ok := by[7]["child"]; !ok {
		t.Fatalf("selfByOp lost the child: %v", by)
	}
}

func TestLayerRoundsAndDerive(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "run", Start: 0, End: 10 * time.Millisecond},
		{ID: 2, Op: 2, Name: "run", Start: 0, End: 5 * time.Millisecond},
		{ID: 3, Op: 3, Name: "run", Start: 0, End: 7 * time.Millisecond},
		{ID: 4, Op: 3, Name: "part", Start: 0, End: 2 * time.Millisecond},
	}
	lr := layerRounds(spans, map[int]int{1: 2, 2: 2, 3: 4})
	if len(lr["run"]) != 2 || lr["run"][0] != 15 || lr["run"][1] != 7 {
		t.Fatalf("run per round = %v, want [15 7]", lr["run"])
	}
	if d, ok := derive(lr["run"], []float64{5, 2}); !ok || d[0] != 10 || d[1] != 5 {
		t.Fatalf("derive = %v %v", d, ok)
	}
	if _, ok := derive([]float64{1}, []float64{2}); ok {
		t.Fatalf("a negative difference must be reported")
	}
}

func TestDigestOf(t *testing.T) {
	a := digestOf([]byte("ab"), []byte("c"))
	if a != digestOf([]byte("ab"), []byte("c")) {
		t.Fatal("digest is not deterministic")
	}
	if a == digestOf([]byte("a"), []byte("bc")) {
		t.Fatal("moving a part boundary must change the digest")
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", a)
	}
}

func TestRecordedDigestsLoad(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d["debloat_corpus"]); n != 21 {
		t.Errorf("debloat_corpus digests for %d apps, want 21", n)
	}
	for _, w := range []string{"fleet_day", "fleet_chaos"} {
		if n := len(d[w]); n != recordedFleetSeeds {
			t.Errorf("%s digests for %d seeds, want %d", w, n, recordedFleetSeeds)
		}
	}
}

func TestResultJSONHasEveryMetric(t *testing.T) {
	res := newResult()
	res.attempted = 3
	res.e2e["setup_s"] = 0.25
	line := resultJSON(res, endToEnd, res.e2e)
	if !strings.HasPrefix(line, `{"correct": true, "attempted": 3, "failed": 0, "metrics": {`) {
		t.Fatalf("result line %s", line)
	}
	for _, d := range endToEnd {
		if !strings.Contains(line, `"`+d.name+`": {"value": `) {
			t.Errorf("result line lacks %s", d.name)
		}
	}
	res.problem("x")
	if !strings.HasPrefix(resultJSON(res, endToEnd, res.e2e), `{"correct": false`) {
		t.Fatal("a failed check must make the result incorrect")
	}
}

func TestSlope(t *testing.T) {
	if s := slope([]float64{10, 12, 14, 16}); s != 2 {
		t.Fatalf("slope = %v, want 2", s)
	}
	if s := slope([]float64{5}); s != 0 {
		t.Fatalf("slope of one point = %v", s)
	}
}

func TestOverheadPairsNeighbours(t *testing.T) {
	// The host slows down halfway; pairing keeps that out of the overhead.
	untraced := []float64{100, 100, 200, 200}
	traced := []float64{110, 110, 220, 220}
	if got := overheadPct(traced, untraced); got < 9.99 || got > 10.01 {
		t.Fatalf("overhead = %v%%, want 10%%", got)
	}
}

// The program and BENCHMARK.json must name the same metrics with the same
// units, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.what, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}
