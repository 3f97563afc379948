package obs

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression test for the Merge lock ordering: concurrent cross-merges
// (a→b while b→a) plus mid-merge snapshots must neither deadlock nor race.
// Run with -race; the pre-fix implementation held both registry locks at
// once and could deadlock on acquisition order.
func TestRegistryMergeConcurrent(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	var aSeq, bSeq atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				a.Inc("n", 1)
				a.Observe("lat", 0.001)
				a.Observe("a.seq", float64(aSeq.Add(1)))
				a.Merge(b)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Inc("n", 1)
				b.Observe("lat", 0.002)
				b.Observe("b.seq", float64(bSeq.Add(1)))
				b.Merge(a)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = a.Snapshot()
				_ = b.Snapshot()
				_ = a.Histogram("lat")
			}
		}()
	}
	wg.Wait()
	// Sanity only — the interleaving is nondeterministic, but each side
	// must retain its own 200 writes. Counters and bucket counts are no
	// witness: every cross-merge adds one side's totals into the other, so
	// they grow geometrically with the merge count and can wrap. A
	// histogram's min and max do not compound, and a side's own sequence
	// 1..200 is the only source of its ".seq" series — the other side
	// holds at most a stale copy — so min 1 and max 200 survive a merge
	// only if the destination keeps its own observations.
	for _, c := range []struct {
		r    *Registry
		name string
	}{{a, "a.seq"}, {b, "b.seq"}} {
		h := c.r.Histogram(c.name)
		if h == nil {
			t.Errorf("%s: histogram missing", c.name)
			continue
		}
		if h.Min() != 1 || h.Max() != 200 {
			t.Errorf("%s: min %v max %v, want 1 and 200", c.name, h.Min(), h.Max())
		}
	}
}

func TestRegistryMergeSequentialSemantics(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Inc("c", 2)
	b.Inc("c", 3)
	a.SetGauge("g", 1)
	b.SetGauge("g", 7)
	a.Observe("h", 0.5)
	b.Observe("h", 1.5)
	a.Merge(b)
	a.Merge(nil)
	(*Registry)(nil).Merge(b)
	if got := a.Counter("c"); got != 5 {
		t.Errorf("counter = %d", got)
	}
	if got := a.Gauge("g"); got != 7 {
		t.Errorf("gauge = %d, want o's value", int(got))
	}
	h := a.Histogram("h")
	if h == nil || h.Count() != 2 || h.Sum() != 2.0 {
		t.Errorf("merged histogram = %+v", h)
	}
	// b is unchanged by being a merge source.
	if b.Counter("c") != 3 || b.Histogram("h").Count() != 1 {
		t.Error("merge mutated its source")
	}
}

func TestFoldedStacks(t *testing.T) {
	tr := New()
	root := tr.Start("replay", "phase", 0)
	childA := tr.StartChild(root, "init", "phase", 1*time.Millisecond)
	childA.Finish(4 * time.Millisecond)
	childB := tr.StartChild(root, "exec", "phase", 4*time.Millisecond)
	childB.Finish(6 * time.Millisecond)
	tr.End(root, 6500*time.Microsecond)

	got := string(tr.FoldedStacks())
	want := "replay 1500\nreplay;exec 2000\nreplay;init 3000\n"
	if got != want {
		t.Errorf("folded stacks:\n%s\nwant:\n%s", got, want)
	}
}

func TestFoldedStacksUnfinishedSpans(t *testing.T) {
	tr := New()
	root := tr.Start("replay", "phase", 0)
	child := tr.StartChild(root, "init", "phase", 0)
	child.Finish(2 * time.Millisecond)
	// root is never ended: Dur() is 0, so self-time clamps to zero and the
	// open span contributes no line, while its finished child still does.
	got := string(tr.FoldedStacks())
	want := "replay;init 2000\n"
	if got != want {
		t.Errorf("folded stacks with open root:\n%q\nwant %q", got, want)
	}
}

func TestFoldedStacksEmptyAndNil(t *testing.T) {
	var nilTr *Tracer
	if b := nilTr.FoldedStacks(); b != nil {
		t.Errorf("nil tracer folded stacks = %q", b)
	}
	if b := New().FoldedStacks(); len(b) != 0 {
		t.Errorf("empty tracer folded stacks = %q", b)
	}
}

func TestSnapshotOpenMetricsEmptyRegistry(t *testing.T) {
	got := string(NewRegistry().Snapshot().OpenMetrics())
	if got != "# EOF\n" {
		t.Errorf("empty registry exposition = %q", got)
	}
	var nilReg *Registry
	if got := string(nilReg.Snapshot().OpenMetrics()); got != "# EOF\n" {
		t.Errorf("nil registry exposition = %q", got)
	}
}

func TestSnapshotOpenMetricsContents(t *testing.T) {
	r := NewRegistry()
	r.Inc("faas.invocations", 3)
	r.SetGauge("pool.size", 2)
	r.Observe("faas.cold.e2e", 0.25)
	r.Observe("faas.cold.e2e", 0.75)
	om := string(r.Snapshot().OpenMetrics())
	for _, want := range []string{
		"# TYPE lambdatrim_faas_invocations counter",
		"lambdatrim_faas_invocations_total 3",
		"lambdatrim_pool_size 2",
		"lambdatrim_faas_cold_e2e_count 2",
		"lambdatrim_faas_cold_e2e_sum 1",
		`lambdatrim_faas_cold_e2e{quantile="0.95"}`,
	} {
		if !strings.Contains(om, want) {
			t.Errorf("exposition missing %q:\n%s", want, om)
		}
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("exposition must end with # EOF")
	}
	if !bytes.Equal(r.Snapshot().OpenMetrics(), r.Snapshot().OpenMetrics()) {
		t.Error("exposition is not byte-stable")
	}
}

// Zero-invocation exporters: a fresh tracer that recorded nothing must
// still produce structurally valid Chrome/JSONL/metrics output.
func TestExportersZeroInvocations(t *testing.T) {
	tr := New()
	chrome, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(chrome); got != "{\"traceEvents\":[\n]}\n" {
		t.Errorf("empty chrome trace = %q", got)
	}
	if got := tr.EventLogJSONL(); len(got) != 0 {
		t.Errorf("empty event log = %q", got)
	}
	if _, err := tr.Metrics().Snapshot().JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceUnfinishedSpan(t *testing.T) {
	tr := New()
	tr.Start("open", "phase", 0)
	b, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	// An open span exports with dur 0 — valid JSON, not a hang or panic.
	if !strings.Contains(string(b), `"dur":0`) {
		t.Errorf("open span should export dur 0:\n%s", b)
	}
}
