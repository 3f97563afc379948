package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/analyzer"
	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/faas"
	"repro/internal/profiler"
	"repro/internal/pyruntime"
)

// setupRepeats is how often a pass builds the corpus images.
const setupRepeats = 5

// corpusPass is what one pass over the corpus decided. Every field is a
// simulated count and must repeat exactly from pass to pass.
type corpusPass struct {
	oracleRuns, ddTests, removed int
	simDebloat                   time.Duration
	speedup, savingsPct          float64 // means over the apps
}

// runCorpus is the debloat_corpus workload: passes over all corpus apps,
// each pass in its own order drawn from the seed. Each operation is the `lambdatrim <app>` path —
// debloat.Run at DefaultConfig, then a cold start of the original and of
// the debloated app — on one goroutine. A pass shares one snapshot cache
// and one parse cache across its apps; each pass starts with fresh ones
// and freshly built images (the set-up).
func runCorpus(o options) (*result, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	want := digests["debloat_corpus"]
	catalog := appcorpus.Catalog()
	sort.Slice(catalog, func(i, j int) bool { return catalog[i].Name < catalog[j].Name })
	rng := rand.New(rand.NewSource(o.seed))

	res := newResult()

	var (
		tracer      *Tracer
		roundOf     = map[int]int{}
		nextOp      = 0
		setupS      []float64
		opMS        []float64 // untraced per-app operation times
		passMS      []float64 // untraced pass busy times
		workPerS    []float64
		opAlloc     uint64
		peakMB      []float64 // untraced passes
		first       *corpusPass
		heapAfter   []float64 // trace mode: live heap after each pass (KB)
		memo        = map[string][]float64{}
		allocPerRun []float64
	)
	if o.trace {
		tracer = newTracer()
	}
	platform := faas.DefaultConfig()
	rs := newRounds(o)
	passes := 0
	for round := 0; rs.more(round); round++ {
		passes++
		var tr *Tracer
		if rs.traced(round) {
			tr = tracer
		}
		timed := round > 0 && tr == nil
		defs := append([]*appcorpus.AppDef(nil), catalog...)
		rng.Shuffle(len(defs), func(i, j int) { defs[i], defs[j] = defs[j], defs[i] })
		if round < 2 {
			res.printf("pass %d app order: %v", round, appNames(defs))
		}
		nextOp++
		setupOp := nextOp
		roundOf[setupOp] = round
		// Building the images takes a few milliseconds, so it is repeated
		// to give set-up enough samples; the last build is used.
		var apps []*appspec.App
		for k := 0; k < setupRepeats; k++ {
			t0 := time.Now()
			var sid int
			if k == setupRepeats-1 {
				sid = tr.begin("appcorpus.build", 0, setupOp)
			}
			apps = make([]*appspec.App, len(defs))
			for i, d := range defs {
				apps[i] = d.Build()
			}
			tr.end(sid)
			if timed {
				setupS = append(setupS, time.Since(t0).Seconds())
			}
		}
		resetPeakRSS()

		cfg := debloat.DefaultConfig()
		cfg.Snapshots = pyruntime.NewSnapshotCache()
		cfg.ASTCache = pyruntime.NewASTCache()
		var pass corpusPass
		speedup, savings := map[string]float64{}, map[string]float64{}
		var busy time.Duration
		var runAlloc uint64
		for i, app := range apps {
			nextOp++
			op := nextOp
			roundOf[op] = round
			res.attempted++

			a0 := readAlloc()
			t := time.Now()
			root := tr.begin("debloat_corpus.op", 0, op)
			var dr *debloat.Result
			var before, after *faas.Invocation
			var err error
			id := tr.begin("debloat.run", root, op)
			var r0 allocMeter
			if tr != nil {
				r0 = readAlloc()
			}
			dr, err = debloat.Run(app, cfg)
			if tr != nil {
				runAlloc += readAlloc().since(r0).bytes
			}
			tr.end(id)
			if err == nil {
				tr.wrap("faas.cold_start", root, op, func() { before, err = faas.MeasureColdStart(dr.Original, platform) })
			}
			if err == nil {
				tr.wrap("faas.cold_start", root, op, func() { after, err = faas.MeasureColdStart(dr.App, platform) })
			}
			tr.end(root)
			d := time.Since(t)
			alloc := readAlloc().since(a0)
			if err != nil {
				res.opFailed("%s: %v", app.Name, err)
				continue
			}
			busy += d
			if timed {
				opMS = append(opMS, ms(d))
				opAlloc += alloc.bytes
			}

			// Output checks, outside the timed operation. In traced passes
			// the verification oracle pass is itself a probed layer.
			probe := tr.begin("debloat_corpus.probe", 0, op)
			if tr != nil {
				fresh := defs[i].Build()
				tr.wrap("analyzer.analyze", probe, op, func() { _, err = analyzer.Analyze(fresh.Image, fresh.Entry, fresh.Handler) })
				if err == nil {
					tr.wrap("profiler.run", probe, op, func() {
						_, err = profiler.Run(fresh.Image, fresh.Entry, profiler.Options{Scoring: cfg.Scoring, Seed: cfg.Seed})
					})
				}
			}
			if err == nil {
				tr.wrap("debloat.verify", probe, op, func() { err = debloat.VerifyApp(dr.App) })
			}
			tr.end(probe)
			if err != nil {
				res.opFailed("%s: check: %v", app.Name, err)
				continue
			}
			if got := appDigest(dr); got != want[app.Name] {
				res.opFailed("%s: digest %s, recorded %s", app.Name, got[:12], short(want[app.Name]))
				continue
			}
			pass.oracleRuns += dr.OracleRuns
			for _, m := range dr.Modules {
				pass.ddTests += m.DD.Tests
			}
			pass.removed += dr.TotalRemoved()
			pass.simDebloat += dr.DebloatTime
			speedup[app.Name] = before.Init.Seconds() / after.Init.Seconds()
			savings[app.Name] = (1 - after.CostUSD/before.CostUSD) * 100
		}
		// Sum in catalog order, so the float means do not depend on the
		// pass order.
		for _, d := range catalog {
			pass.speedup += speedup[d.Name] / float64(len(catalog))
			pass.savingsPct += savings[d.Name] / float64(len(catalog))
		}
		if first == nil {
			first = &pass
		} else if pass != *first {
			res.problem("pass %d outputs %+v differ from pass 0 %+v", round, pass, *first)
		}
		if timed {
			passMS = append(passMS, ms(busy))
			peakMB = append(peakMB, peakRSSMB())
			workPerS = append(workPerS, float64(pass.oracleRuns)/busy.Seconds())
		} else if tr != nil {
			st := cfg.Snapshots.Stats()
			memo["hits"] = append(memo["hits"], float64(st.Hits))
			memo["misses"] = append(memo["misses"], float64(st.Misses))
			memo["evictions"] = append(memo["evictions"], float64(st.Evictions))
			memo["ratio"] = append(memo["ratio"], float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
			allocPerRun = append(allocPerRun, float64(runAlloc)/1024/float64(max(pass.oracleRuns, 1)))
		}
		if o.trace {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heapAfter = append(heapAfter, float64(m.HeapAlloc)/1024)
		}
	}

	e := res.e2e
	e["setup_s"] = median(setupS)
	e["work_per_s"] = median(workPerS)
	p50, p90 := percentile(opMS, 50), percentile(opMS, 90)
	e["op_p50_ms"] = p50.Value
	e["alloc_mb"] = float64(opAlloc) / float64(max(len(opMS), 1)) / (1 << 20)
	e["peak_rss_mb"] = median(peakMB)
	res.printf("passes %d (1 warm-up, %d timed untraced), app operations %d", passes, len(passMS), res.attempted)
	res.printf("oracle_runs_per_s %.1f 1/s (median of %d passes)", e["work_per_s"], len(workPerS))
	res.printf("app_debloat_p50_ms %s ms", p50)
	res.printf("app_debloat_p90_ms %s ms", p90)
	res.printf("pass_ms %.1f ms (median of %d)", median(passMS), len(passMS))
	res.printf("rounds_ms %s", roundList(passMS))
	if first != nil {
		res.printf("per pass: oracle runs %d, dd tests %d, removed attrs %d, sim debloat %.1fs",
			first.oracleRuns, first.ddTests, first.removed, first.simDebloat.Seconds())
		res.printf("sim_init_speedup_x %s x, sim_cost_savings_pct %s %%", formatFloat(first.speedup), formatFloat(first.savingsPct))
	}
	if !o.trace {
		return res, nil
	}

	res.spans = tracer.spans
	lr := layerRounds(tracer.spans, roundOf)
	l := res.layers
	for _, name := range []string{"appcorpus.build", "analyzer.analyze", "profiler.run", "debloat.run", "debloat.verify", "faas.cold_start"} {
		l[name+"_ms"] = median(lr[name])
	}
	dd, ok := derive(lr["debloat.run"], lr["analyzer.analyze"], lr["profiler.run"])
	if !ok {
		res.problem("debloat.dd_ms = run - analyze - profile came out negative: %v", dd)
	}
	l["debloat.dd_ms"] = median(dd)
	if first != nil {
		l["debloat.oracle_runs"] = float64(first.oracleRuns)
		l["dd.tests"] = float64(first.ddTests)
		l["debloat.removed_attrs"] = float64(first.removed)
		l["debloat.sim_debloat_s"] = first.simDebloat.Seconds()
		l["sim_init_speedup_x"] = first.speedup
		l["sim_cost_savings_pct"] = first.savingsPct
	}
	l["pyruntime.memo_hits"] = median(memo["hits"])
	l["pyruntime.memo_misses"] = median(memo["misses"])
	l["pyruntime.memo_evictions"] = median(memo["evictions"])
	l["pyruntime.memo_hit_ratio"] = median(memo["ratio"])
	l["debloat.alloc_kb_per_oracle_run"] = median(allocPerRun)
	l["debloat.retained_kb_per_pass"] = slope(heapAfter)
	traced := rootTimes(tracer.spans, roundOf, "debloat_corpus.op")
	l["bench.trace_overhead_pct"] = overheadPct(traced, passMS)
	res.printf("traced passes %d: pass_ms %.1f traced vs %.1f untraced", len(traced), median(traced), median(passMS))
	return res, nil
}

func appNames(defs []*appcorpus.AppDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// slope is the least-squares growth per step of ys (0 for fewer than two).
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	if s == "" {
		return "(none)"
	}
	return s
}
