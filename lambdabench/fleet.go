package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/trace"
)

// The recording rules and queries of the query smoke test: the
// `lambdatrim -fleet -rules -query` path.
const fleetRules = `
	fleet:cost_usd:sum5m = sum(cost.usd[5m])
	fleet:req:rate5m = rate(req.total[5m])
`

var fleetQueries = []string{
	`cost.usd / req.total`,
	`sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])`,
	`rate(req.total{arm="debloated"}[6h])`,
	`fleet:cost_usd:sum5m`,
	`max(fleet:req:rate5m[24h])`,
}

// queryStep spaces the range-query evaluation points.
const queryStep = 15 * time.Minute

// fleetDay is one workload's replay configuration at one seed.
type fleetDay struct {
	name  string
	chaos bool
	pc    fleet.PopConfig
	cfg   fleet.Config
	// rateScale rescales every member's expected arrival count so the
	// day's expected volume equals the seed-1 day's (scale 1 at seed 1).
	rateScale float64
}

// population generates the seeded members, with rates rescaled.
func (fd *fleetDay) population() []fleet.Function {
	pop := fleet.GeneratePopulation(fd.pc, nil)
	for i := range pop {
		pop[i].Rate *= fd.rateScale
	}
	return pop
}

// expectedVolume is a population's expected invocation count.
func expectedVolume(pop []fleet.Function) float64 {
	v := 0.0
	for i := range pop {
		v += pop[i].Rate
	}
	return v
}

// newFleetDay builds fleet_day (chaos false: the 10k-function default day
// with full telemetry, labeled series and the smoke rules) or fleet_chaos
// (the 4-arm mix through the canonical incident day with every
// mitigation).
func newFleetDay(seed int64, chaosDay bool) (*fleetDay, error) {
	pc := fleet.DefaultPopConfig()
	pc.Seed = seed
	cfg := fleet.Config{
		Period:         pc.Period,
		SLOs:           fleet.DefaultSLOs(),
		DashboardEvery: 4 * time.Hour,
		Seed:           pc.Seed,
		Pricing:        pc.Pricing,
	}
	fd := &fleetDay{name: "fleet_day", chaos: chaosDay}
	if chaosDay {
		fd.name = "fleet_chaos"
		pc.ArmMix = []fleet.ArmShare{
			{Arm: chaos.ArmDebloated, Frac: 0.25},
			{Arm: chaos.ArmFallback, Frac: 0.25},
			{Arm: chaos.ArmBreaker, Frac: 0.25},
		}
		cfg.Chaos = &chaos.Config{Seed: pc.Seed, Incidents: chaos.DefaultIncidentDay(), Mitigations: chaos.AllMitigations()}
		cfg.SLOs = fleet.DefaultChaosSLOs()
	} else {
		rules, err := query.ParseRules(fleetRules)
		if err != nil {
			return nil, err
		}
		cfg.LabelSeries = true
		cfg.Rules = rules
	}
	fd.pc, fd.cfg = pc, cfg
	// The seed picks which functions are hot, but the day's volume stays
	// that of seed 1, so seeds differ in mix and not in size. The arm mix
	// does not touch rates, so both workloads share the target.
	target := expectedVolume(fleet.GeneratePopulation(fleet.DefaultPopConfig(), nil))
	fd.rateScale = target / expectedVolume(fleet.GeneratePopulation(pc, nil))
	return fd, nil
}

// dayOutput is what one fleet operation produced.
type dayOutput struct {
	res        *fleet.Result
	digest     string
	boundaries int // range-query evaluation points
	// replayAlloc is what the replay alone allocated (traced rounds only).
	replayAlloc allocMeter
}

// operation is the timed fleet operation: the replay, then the exports
// (and the range queries on fleet_day). Spans go under root when traced.
func (fd *fleetDay) operation(cfg fleet.Config, pop []fleet.Function, tr *Tracer, root, op int) (*dayOutput, error) {
	var res *fleet.Result
	var err error
	var a0 allocMeter
	if tr != nil {
		a0 = readAlloc()
	}
	tr.wrap("fleet.replay", root, op, func() { res, err = fleet.Replay(cfg, pop) })
	if err != nil {
		return nil, err
	}
	out := &dayOutput{res: res}
	if tr != nil {
		out.replayAlloc = readAlloc().since(a0)
	}
	var render, scorecard string
	var om []byte
	var queries []string
	tr.wrap("fleet.render", root, op, func() { render = res.Render() })
	if fd.chaos {
		tr.wrap("chaos.scorecard", root, op, func() { scorecard = res.Scorecard() })
	}
	tr.wrap("fleet.openmetrics", root, op, func() { om = res.OpenMetrics() })
	if !fd.chaos {
		tr.wrap("query.range", root, op, func() {
			eng := res.QueryEngine()
			for _, q := range fleetQueries {
				var js string
				if js, err = eng.RangeJSON(q, 0, -1, queryStep); err != nil {
					return
				}
				queries = append(queries, js)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	parts := [][]byte{[]byte(render), []byte(scorecard), om}
	for _, q := range queries {
		parts = append(parts, []byte(q))
		out.boundaries += strings.Count(q, `"t_us"`)
	}
	out.digest = digestOf(parts...)
	return out, nil
}

// reference replays the day once on one worker, untimed: the digest a
// replay at any worker count must reproduce.
func (fd *fleetDay) reference() (string, error) {
	cfg := fd.cfg
	cfg.Workers = 1
	out, err := fd.operation(cfg, fd.population(), nil, 0, 0)
	if err != nil {
		return "", err
	}
	return out.digest, nil
}

// fleetCounts are the simulated counters of one day; they must repeat
// exactly from round to round.
type fleetCounts struct {
	invocations, coldStarts, errors uint64
	peakLive, series                int
	dropped                         uint64
	retries, hedges, shed, fallback uint64
	unavailabilityPct               float64
	speedup, savingsPct             float64
	digest                          string
}

func countsOf(out *dayOutput) fleetCounts {
	r := out.res
	c := fleetCounts{
		invocations: r.Invocations, coldStarts: r.ColdStarts, errors: r.Errors,
		peakLive: r.PeakLive, digest: out.digest,
	}
	for _, name := range r.Store.Names() {
		c.series++
		c.dropped += r.Store.Dropped(name)
	}
	if sc := r.Chaos; sc != nil {
		c.retries, c.hedges, c.shed, c.fallback = sc.Total.Retries, sc.Total.Hedges, sc.Total.Shed, sc.Total.Fallbacks
		c.unavailabilityPct = sc.Total.Unavailability() * 100
	}
	c.speedup, c.savingsPct = armSavings(r.Arms)
	return c
}

// armSavings compares the debloated arm with the original arm: mean
// billed init per cold start (original over debloated) and the saving in
// cost per invocation, in percent.
func armSavings(arms *monitor.Ledger) (speedup, savingsPct float64) {
	orig, deb := arms.Function(chaos.ArmOriginal), arms.Function(chaos.ArmDebloated)
	if orig.ColdStarts == 0 || deb.ColdStarts == 0 || orig.Invocations == 0 || deb.Invocations == 0 {
		return 0, 0
	}
	initO := float64(orig.BilledInit) / float64(orig.ColdStarts)
	initD := float64(deb.BilledInit) / float64(deb.ColdStarts)
	costO := orig.CostUSD() / float64(orig.Invocations)
	costD := deb.CostUSD() / float64(deb.Invocations)
	return initO / initD, (1 - costD/costO) * 100
}

// runFleet is the fleet_day / fleet_chaos workload: rounds of one fleet
// day each. A round generates the population (the set-up), then runs the
// timed operation on GOMAXPROCS worker shards. Traced rounds add the
// per-layer probes: the arrival streams drained alone, the pool simulated
// with a no-op observer, the replay without telemetry and on one worker,
// and the SLO sweep over the merged store.
func runFleet(o options, chaosDay bool) (*result, error) {
	fd, err := newFleetDay(o.seed, chaosDay)
	if err != nil {
		return nil, err
	}
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	want, recorded := digests[fd.name][strconv.FormatInt(o.seed, 10)]

	res := newResult()
	var (
		tracer   *Tracer
		roundOf  = map[int]int{}
		nextOp   = 0
		setupS   []float64
		opMS     []float64 // untraced
		workPerS []float64
		opAlloc  uint64
		first    *fleetCounts
		digestsN = map[string]int{}
		perInv   = map[string][]float64{}
		workers  int
		queryBPS []float64
		peakMB   []float64 // untraced rounds
	)
	if o.trace {
		tracer = newTracer()
	}
	rs := newRounds(o)
	for round := 0; rs.more(round); round++ {
		var tr *Tracer
		if rs.traced(round) {
			tr = tracer
		}
		timed := round > 0 && tr == nil
		nextOp++
		op := nextOp
		roundOf[op] = round
		res.attempted++

		t0 := time.Now()
		var pop []fleet.Function
		tr.wrap("fleet.population", 0, op, func() { pop = fd.population() })
		if timed {
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		resetPeakRSS()

		a0 := readAlloc()
		t := time.Now()
		root := tr.begin(fd.name+".op", 0, op)
		out, err := fd.operation(fd.cfg, pop, tr, root, op)
		tr.end(root)
		d := time.Since(t)
		alloc := readAlloc().since(a0)
		if err != nil {
			res.opFailed("round %d: %v", round, err)
			continue
		}
		c := countsOf(out)
		switch {
		case recorded && c.digest != want:
			res.opFailed("round %d: digest %s, recorded %s", round, short(c.digest), short(want))
			continue
		case c.dropped != 0:
			res.opFailed("round %d: monitor dropped %d samples", round, c.dropped)
			continue
		case first != nil && c != *first:
			res.opFailed("round %d: counts %+v differ from round 0 %+v", round, c, *first)
			continue
		}
		if first == nil {
			first = &c
		}
		digestsN[c.digest]++
		if timed {
			opMS = append(opMS, ms(d))
			workPerS = append(workPerS, float64(c.invocations)/d.Seconds())
			opAlloc += alloc.bytes
			peakMB = append(peakMB, peakRSSMB())
		}
		if tr == nil {
			continue
		}

		// Per-layer probes of a traced round, after the timed operation.
		inv := float64(out.res.Invocations)
		perInv["b"] = append(perInv["b"], float64(out.replayAlloc.bytes)/inv)
		perInv["allocs"] = append(perInv["allocs"], float64(out.replayAlloc.objects)/inv)
		if n := lastSpan(tracer, "query.range", op); n > 0 {
			queryBPS = append(queryBPS, float64(out.boundaries)/n.Seconds())
		}
		probe := tr.begin(fd.name+".probe", 0, op)
		// The arrivals are materialized so the pool is timed on its own:
		// as a difference from the drain time it drowned in round noise.
		arrivals := make([][]time.Duration, len(pop))
		var drained uint64
		tr.wrap("trace.arrivals", probe, op, func() {
			for i := range pop {
				next := trace.ArrivalStream(pop[i].Seed, pop[i].Rate, fd.pc.Period)
				for at, ok := next(); ok; at, ok = next() {
					arrivals[i] = append(arrivals[i], at)
				}
				drained += uint64(len(arrivals[i]))
			}
		})
		var peakLive int
		tr.wrap("trace.pool", probe, op, func() {
			for i := range pop {
				r := trace.SimulatePoolObserved(arrivals[i], pop[i].Exec, out.res.KeepAlive, func(trace.PoolEvent) {})
				peakLive = max(peakLive, r.MaxInstances)
			}
		})
		bare := fd.cfg
		bare.DisableTelemetry = true
		var bareRes *fleet.Result
		tr.wrap("fleet.replay_bare", probe, op, func() { bareRes, err = fleet.Replay(bare, pop) })
		if err == nil {
			one := fd.cfg
			one.Workers = 1
			var w1 *fleet.Result
			tr.wrap("fleet.replay_w1", probe, op, func() { w1, err = fleet.Replay(one, pop) })
			if err == nil && w1.Invocations != out.res.Invocations {
				err = fmt.Errorf("one-worker replay served %d invocations, %d on %d workers", w1.Invocations, out.res.Invocations, out.res.Workers)
			}
		}
		tr.wrap("monitor.slo_eval", probe, op, func() { monitor.EvaluateSLOs(out.res.Store, out.res.SLOs, out.res.Latest) })
		tr.end(probe)
		switch {
		case err != nil:
			res.opFailed("round %d: probe: %v", round, err)
		case bareRes.Invocations != out.res.Invocations:
			res.opFailed("round %d: bare replay served %d invocations, %d with telemetry", round, bareRes.Invocations, out.res.Invocations)
		case !fd.chaos && drained != out.res.Invocations:
			res.opFailed("round %d: %d arrivals drained, %d invocations replayed", round, drained, out.res.Invocations)
		case !fd.chaos && peakLive != out.res.PeakLive:
			res.opFailed("round %d: pool peak %d alone, %d in the replay", round, peakLive, out.res.PeakLive)
		}
		workers = out.res.Workers
	}

	// A seed without a recorded digest is checked against one untimed
	// one-worker replay.
	if !recorded && first != nil {
		ref, err := fd.reference()
		if err != nil {
			return nil, err
		}
		for dg, n := range digestsN {
			if dg != ref {
				res.failed += n
				res.printf("FAIL %d rounds: digest %s, one-worker reference %s", n, short(dg), short(ref))
			}
		}
		res.printf("held-out seed %d: checked against a one-worker replay", o.seed)
	}

	e := res.e2e
	e["setup_s"] = median(setupS)
	e["work_per_s"] = median(workPerS)
	e["op_p50_ms"] = percentile(opMS, 50).Value
	e["alloc_mb"] = float64(opAlloc) / float64(max(len(opMS), 1)) / (1 << 20)
	e["peak_rss_mb"] = median(peakMB)
	res.printf("rounds %d (1 warm-up, %d timed untraced)", res.attempted, len(opMS))
	res.printf("inv_per_s %.0f 1/s (median of %d days; replay plus exports%s)", e["work_per_s"], len(workPerS),
		map[bool]string{false: " and queries", true: ""}[fd.chaos])
	res.printf("op_ms %s ms", percentile(opMS, 50))
	res.printf("rounds_ms %s", roundList(opMS))
	if first != nil {
		res.printf("sim_init_speedup_x %s x, sim_cost_savings_pct %s %% (debloated vs original arm)",
			formatFloat(first.speedup), formatFloat(first.savingsPct))
		res.printf("digest %s; invocations %d, cold starts %d, peak live %d, series %d, dropped %d",
			short(first.digest), first.invocations, first.coldStarts, first.peakLive, first.series, first.dropped)
		if fd.chaos {
			res.printf("sim_unavailability_pct %s %%; retries %d, hedges %d, shed %d, fallbacks %d",
				formatFloat(first.unavailabilityPct), first.retries, first.hedges, first.shed, first.fallback)
		}
	}
	if !o.trace {
		return res, nil
	}

	res.spans = tracer.spans
	lr := layerRounds(tracer.spans, roundOf)
	l := res.layers
	for _, name := range []string{"fleet.population", "trace.arrivals", "trace.pool", "fleet.replay_bare", "fleet.replay",
		"fleet.replay_w1", "monitor.slo_eval", "fleet.render", "fleet.openmetrics", "query.range", "chaos.scorecard"} {
		l[name+"_ms"] = median(lr[name])
	}
	tele, okTele := derive(lr["fleet.replay"], lr["fleet.replay_bare"])
	if !okTele {
		res.problem("fleet.telemetry_ms = replay - replay_bare came out negative: %v", tele)
	}
	l["fleet.telemetry_ms"] = median(tele)
	var eff []float64
	for i, w1 := range lr["fleet.replay_w1"] {
		eff = append(eff, w1/(float64(workers)*lr["fleet.replay"][i]))
	}
	l["fleet.parallel_eff"] = median(eff)
	l["fleet.b_per_inv"] = median(perInv["b"])
	l["fleet.allocs_per_inv"] = median(perInv["allocs"])
	l["query.boundaries_per_s"] = median(queryBPS)
	if first != nil {
		l["fleet.invocations"] = float64(first.invocations)
		l["fleet.cold_frac"] = float64(first.coldStarts) / float64(max(first.invocations, 1))
		l["fleet.peak_live"] = float64(first.peakLive)
		l["fleet.errors"] = float64(first.errors)
		l["monitor.series"] = float64(first.series)
		l["monitor.dropped"] = float64(first.dropped)
		l["chaos.retries"] = float64(first.retries)
		l["chaos.hedges"] = float64(first.hedges)
		l["chaos.shed"] = float64(first.shed)
		l["chaos.fallbacks"] = float64(first.fallback)
		l["sim_unavailability_pct"] = first.unavailabilityPct
		l["sim_init_speedup_x"] = first.speedup
		l["sim_cost_savings_pct"] = first.savingsPct
	}
	traced := rootTimes(tracer.spans, roundOf, fd.name+".op")
	l["bench.trace_overhead_pct"] = overheadPct(traced, opMS)
	res.printf("traced rounds %d: op_ms %.1f traced vs %.1f untraced", len(traced), median(traced), median(opMS))
	return res, nil
}

// lastSpan is the duration of the most recent span named name in op.
func lastSpan(t *Tracer, name string, op int) time.Duration {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Op == op && s.Name == name {
			return s.End - s.Start
		}
	}
	return 0
}
