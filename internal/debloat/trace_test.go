package debloat

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// A traced pipeline run must cover every stage as spans on the virtual
// timeline, with DD rounds nested under their module spans, and its
// metrics must agree with the result's own accounting.
func TestTracedPipelineSpansAndMetrics(t *testing.T) {
	app := torchExampleApp()
	tr := obs.New()
	cfg := DefaultConfig()
	cfg.Tracer = tr
	res, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}

	roots := tr.Roots()
	if len(roots) != 1 || !strings.HasPrefix(roots[0].Name, "debloat ") {
		t.Fatalf("want a single pipeline root, got %v", roots)
	}
	root := roots[0]
	if root.End <= root.Start {
		t.Errorf("pipeline root span is empty: [%v, %v]", root.Start, root.End)
	}

	stages := map[string]int{}
	rounds, oracles, modules := 0, 0, 0
	tr.Walk(func(s *obs.Span, depth int) {
		switch s.Cat {
		case "pipeline", "profiler":
			stages[s.Name]++
		case "dd":
			switch s.Name {
			case "round":
				rounds++
			case "oracle":
				oracles++
			}
		case "debloat":
			if strings.HasPrefix(s.Name, "module ") {
				modules++
			}
		}
	})
	for _, want := range []string{"analyze", "golden", "materialize", "verify"} {
		if stages[want] != 1 {
			t.Errorf("stage %q spans = %d, want 1", want, stages[want])
		}
	}
	if stages["profile "+app.Entry] != 1 {
		t.Errorf("missing profile span, stages = %v", stages)
	}
	if modules != len(res.Modules) {
		t.Errorf("module spans = %d, want %d", modules, len(res.Modules))
	}
	if rounds == 0 {
		t.Error("no DD round spans recorded")
	}

	// Sequential DD records one span per executed (non-memoized) oracle
	// call; cross-check against the dd.Stats the pipeline reports.
	wantTests := 0
	for _, m := range res.Modules {
		wantTests += m.DD.Tests
	}
	if oracles != wantTests {
		t.Errorf("oracle spans = %d, want %d (sum of DD.Tests)", oracles, wantTests)
	}

	reg := tr.Metrics()
	if got := reg.Counter("debloat.oracle_runs"); got != int64(res.OracleRuns) {
		t.Errorf("debloat.oracle_runs = %d, want %d", got, res.OracleRuns)
	}
	if got := reg.Counter("debloat.removed_attrs"); got != int64(res.TotalRemoved()) {
		t.Errorf("debloat.removed_attrs = %d, want %d", got, res.TotalRemoved())
	}
	if got := reg.Counter("dd.tests"); got != int64(wantTests) {
		t.Errorf("dd.tests = %d, want %d", got, wantTests)
	}
	if h := reg.Histogram("debloat.oracle.seconds"); h == nil || h.Count() != uint64(res.OracleRuns) {
		t.Errorf("debloat.oracle.seconds histogram count != %d", res.OracleRuns)
	}

	// Spans never run backwards, and the root bounds every descendant.
	tr.Walk(func(s *obs.Span, depth int) {
		if s.End < s.Start {
			t.Errorf("span %q runs backwards: [%v, %v]", s.Name, s.Start, s.End)
		}
	})
}

// Tracing must not perturb the pipeline: identical results with and
// without a tracer, and parallel DD traces only deterministic wave
// boundaries while producing the sequential result.
func TestTracedPipelineMatchesUntraced(t *testing.T) {
	base, err := Run(torchExampleApp(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 4} {
		tr := obs.New()
		cfg := DefaultConfig()
		cfg.Tracer = tr
		cfg.Workers = workers
		res, err := Run(torchExampleApp(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalRemoved() != base.TotalRemoved() {
			t.Errorf("workers=%d: removed %d attrs traced, %d untraced",
				workers, res.TotalRemoved(), base.TotalRemoved())
		}
		if workers == 0 && res.DebloatTime != base.DebloatTime {
			t.Errorf("tracing changed DebloatTime: %v vs %v", res.DebloatTime, base.DebloatTime)
		}
		oracleSpans := 0
		waves := 0
		tr.Walk(func(s *obs.Span, depth int) {
			if s.Cat == "dd" && s.Name == "oracle" {
				oracleSpans++
			}
			if s.Cat == "dd" && s.Name == "wave" {
				waves++
			}
		})
		if workers > 1 {
			if oracleSpans != 0 {
				t.Errorf("parallel DD must not record per-oracle spans, got %d", oracleSpans)
			}
			if waves == 0 {
				t.Error("parallel DD should record wave spans")
			}
		} else if waves != 0 {
			t.Errorf("sequential DD recorded %d wave spans", waves)
		}
	}
}

// Concurrent oracle runs account their durations in schedule order, and a
// histogram's float sum depends on observation order: the metrics a
// parallel DD run leaves behind must not. Two runs that account the same
// durations in different orders give byte-identical snapshots.
func TestOracleMetricsIndependentOfAccountOrder(t *testing.T) {
	// 0.3 s, 0.6 s and 0.7 s once SpawnOverhead is added: summed in
	// index order they give 1.5999999999999999, in order 0, 2, 1 they
	// give 1.6.
	durations := []time.Duration{180 * time.Millisecond, 480 * time.Millisecond, 580 * time.Millisecond}
	var snaps []string
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}} {
		tr := obs.New()
		run := &runner{tr: tr}
		cfg := DefaultConfig()
		cfg.Workers = 4
		// Only the full set is ever tested with a non-empty keep list
		// before memo answers take over, so the durations are accounted
		// exactly once.
		minimize(run, []int{0}, func(keep []int) bool {
			if len(keep) == 0 {
				return false
			}
			for _, i := range order {
				run.account(durations[i])
			}
			return true
		}, cfg)
		b, err := tr.Metrics().Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, string(b))
	}
	if snaps[0] != snaps[1] {
		t.Errorf("metrics depend on account order:\n%s\nvs\n%s", snaps[0], snaps[1])
	}
}
