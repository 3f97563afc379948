// Command lambdabench is the repository benchmark. It drives the public
// functions of the debloating pipeline and the fleet replay from outside,
// one operation at a time (a closed loop), checks every output against
// recorded digests, and prints one JSON result line last.
//
//	go run . --workload debloat_corpus --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 alternates
// untraced and traced rounds: the traced rounds wrap every layer call in an
// in-memory span, add per-layer probe calls, and yield the per-layer
// metrics (span self times and layer counters) plus the tracing overhead.
// See README.md for the workloads and the metric map.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced-run metrics. Every workload reports all of
// them; a layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_pct", "%"},
	{"failed_frac", "ratio"},
	{"sim_init_speedup_x", "x"},
	{"sim_cost_savings_pct", "%"},
	{"sim_unavailability_pct", "%"},
	// debloat_corpus
	{"appcorpus.build_ms", "ms"},
	{"analyzer.analyze_ms", "ms"},
	{"profiler.run_ms", "ms"},
	{"debloat.run_ms", "ms"},
	{"debloat.dd_ms", "ms"},
	{"debloat.verify_ms", "ms"},
	{"faas.cold_start_ms", "ms"},
	{"debloat.oracle_runs", "count"},
	{"dd.tests", "count"},
	{"debloat.removed_attrs", "count"},
	{"debloat.sim_debloat_s", "sim_s"},
	{"pyruntime.memo_hits", "count"},
	{"pyruntime.memo_misses", "count"},
	{"pyruntime.memo_hit_ratio", "ratio"},
	{"pyruntime.memo_evictions", "count"},
	{"debloat.alloc_kb_per_oracle_run", "KB"},
	{"debloat.retained_kb_per_pass", "KB"},
	// fleet_day and fleet_chaos
	{"fleet.population_ms", "ms"},
	{"trace.arrivals_ms", "ms"},
	{"trace.pool_ms", "ms"},
	{"fleet.replay_bare_ms", "ms"},
	{"fleet.replay_ms", "ms"},
	{"fleet.telemetry_ms", "ms"},
	{"fleet.replay_w1_ms", "ms"},
	{"fleet.parallel_eff", "ratio"},
	{"fleet.b_per_inv", "B"},
	{"fleet.allocs_per_inv", "count"},
	{"monitor.slo_eval_ms", "ms"},
	{"fleet.render_ms", "ms"},
	{"fleet.openmetrics_ms", "ms"},
	{"query.range_ms", "ms"},
	{"query.boundaries_per_s", "1/s"},
	{"chaos.scorecard_ms", "ms"},
	{"fleet.invocations", "count"},
	{"fleet.cold_frac", "ratio"},
	{"fleet.peak_live", "count"},
	{"fleet.errors", "count"},
	{"monitor.series", "count"},
	{"monitor.dropped", "count"},
	{"chaos.retries", "count"},
	{"chaos.hedges", "count"},
	{"chaos.shed", "count"},
	{"chaos.fallbacks", "count"},
}

// result is what a workload run hands back for printing.
type result struct {
	attempted, failed int
	// problems are failed checks that belong to no single operation.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// lines is the human-readable report printed before the JSON line.
	lines []string
	spans []Span
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opFailed records one operation that errored or failed its output check.
func (r *result) opFailed(format string, args ...any) {
	r.failed++
	r.printf("FAIL "+format, args...)
}

var workloads = map[string]func(options) (*result, error){
	"debloat_corpus": runCorpus,
	"fleet_day":      func(o options) (*result, error) { return runFleet(o, false) },
	"fleet_chaos":    func(o options) (*result, error) { return runFleet(o, true) },
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lambdabench", flag.ContinueOnError)
	workload := fs.String("workload", "", "debloat_corpus, fleet_day or fleet_chaos")
	seed := fs.Int64("seed", 1, "workload seed: the app order for debloat_corpus, the population seed for the fleet workloads")
	seconds := fs.Int("seconds", 20, "measurement time in seconds (whole rounds; the last round may run over)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced rounds")
	out := fs.String("out", ".", "directory for the traced run's span file")
	writeDigests := fs.String("write-digests", "", "record the output digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests != "" {
		if err := recordDigests(*writeDigests); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown --workload %q (debloat_corpus, fleet_day, fleet_chaos)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "--seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}

	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d\n",
		o.workload, o.seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	res.layers["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED", p)
	}
	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layers
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(os.Stderr, "writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(res.spans), path)
	}
	for _, d := range defs {
		fmt.Printf("metric %-34s %s %s\n", d.name, formatFloat(vals[d.name]), d.unit)
	}
	fmt.Println(resultJSON(res, defs, vals))
	return 0
}

// resultJSON renders the final line: every metric of defs, with all its
// digits. A metric the workload did not set reads 0.
func resultJSON(res *result, defs []metricDef, vals map[string]float64) string {
	var b bytes.Buffer
	correct := res.failed == 0 && len(res.problems) == 0
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, res.attempted, res.failed)
	for i, d := range defs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, formatFloat(vals[d.name]), d.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// formatFloat is the shortest round-trip form; JSON has no NaN or Inf.
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// roundList renders per-round times in run order, to one decimal.
func roundList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-resident-set count (VmHWM) from the resident set that is left, so
// each round's peak is read on its own, from the same starting point.
// Where the kernel refuses the reset, peaks accumulate over the run.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// allocMeter reads the process's cumulative allocation counters.
type allocMeter struct{ bytes, objects uint64 }

func readAlloc() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.TotalAlloc, m.Mallocs}
}

func (a allocMeter) since(b allocMeter) allocMeter {
	return allocMeter{a.bytes - b.bytes, a.objects - b.objects}
}

// rounds drives a workload's closed loop: round 0 warms the process up
// and is checked but not timed; then rounds run until the measurement time
// has passed (the last one may run over) and at least min have run. In
// trace mode every second measured round is traced.
type rounds struct {
	seconds time.Duration
	trace   bool
	min     int
	start   time.Time
}

func newRounds(o options) *rounds {
	r := &rounds{seconds: o.seconds, trace: o.trace, min: 2}
	if o.trace {
		r.min = 5 // two untraced and two traced measured rounds at least
	}
	return r
}

// more reports whether round i should run.
func (r *rounds) more(i int) bool {
	if i == 1 {
		r.start = time.Now()
	}
	return i < r.min || time.Since(r.start) < r.seconds
}

// traced reports whether round i is a traced round.
func (r *rounds) traced(i int) bool { return r.trace && i > 0 && i%2 == 0 }

// layerRounds collects, per span name, one self-time sum per traced round
// (in ms): the per-layer time of a round.
func layerRounds(spans []Span, roundOf map[int]int) map[string][]float64 {
	perRound := map[int]map[string]float64{}
	for op, byName := range selfByOp(spans) {
		r := roundOf[op]
		if perRound[r] == nil {
			perRound[r] = map[string]float64{}
		}
		for name, d := range byName {
			perRound[r][name] += ms(d)
		}
	}
	rounds := make([]int, 0, len(perRound))
	for r := range perRound {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	out := map[string][]float64{}
	for _, r := range rounds {
		for name, v := range perRound[r] {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// rootTimes sums, per traced round, the full duration of the spans named
// root: the traced counterpart of an untraced round's operation time.
func rootTimes(spans []Span, roundOf map[int]int, root string) []float64 {
	per := map[int]float64{}
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			per[roundOf[s.Op]] += ms(s.End - s.Start)
		}
	}
	keys := make([]int, 0, len(per))
	for r := range per {
		keys = append(keys, r)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, r := range keys {
		out[i] = per[r]
	}
	return out
}

// overheadPct is the tracing overhead in percent: the median over round
// pairs of a traced round's operation time over the untraced round just
// before it. Pairing neighbours keeps slow drifts of the host out of it.
func overheadPct(traced, untraced []float64) float64 {
	var ratios []float64
	for i := 0; i < len(traced) && i < len(untraced); i++ {
		ratios = append(ratios, (traced[i]/untraced[i]-1)*100)
	}
	return median(ratios)
}

// derive reports a - b per round (rounds aligned) and whether every
// difference is non-negative.
func derive(a []float64, bs ...[]float64) ([]float64, bool) {
	out := append([]float64(nil), a...)
	ok := true
	for i := range out {
		for _, b := range bs {
			if i < len(b) {
				out[i] -= b[i]
			}
		}
		if out[i] < 0 {
			ok = false
		}
	}
	return out, ok
}
