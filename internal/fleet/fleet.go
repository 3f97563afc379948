// Package fleet is the sharded virtual-time fleet replay engine: it
// partitions a population of thousands of serverless functions into
// contiguous ID-ordered blocks, replays each block's keep-alive pool
// dynamics on a private worker shard — each shard feeding its own
// monitor.Store and cost ledgers — and folds the shard
// results back together in block order at the end of the replay.
//
// The engine's contract is byte-identity across worker counts. Every
// accumulator is either order-independent (integer counters, window
// counts, histogram buckets, max-folds, top-K selections under a total
// order) or folded in a fixed order that does not depend on scheduling:
// functions fold sequentially in ID order within their block, and blocks
// merge in index order — so the net floating-point fold order is function
// ID order no matter how many workers ran or how the OS scheduled them.
// The number of blocks (not workers) is what pins the partition, and it
// is part of the replay configuration.
//
// Telemetry is streaming: no per-invocation record is ever materialized.
// Arrivals come from seeded per-function Poisson streams (one
// trace.Stream per shard, reseeded per function), pool state is bounded
// by peak concurrency (trace.SimulatePoolGated), and every observation
// lands in mergeable rollups (monitor.Store windows), phase ledgers,
// log-scale histograms, and small fixed-size exemplar sets. Resident
// memory is therefore proportional to blocks × windows, flat in the
// invocation count — a day of millions of arrivals replays in seconds
// within a few tens of MB.
//
// SLO alerting over the merged result is exact, not approximate: a
// monitor boundary at T reads only windows strictly before T and windows
// partition samples by timestamp, so monitor.EvaluateSLOs over the merged
// store reproduces the alert log a single live Monitor observing the
// globally-ordered sample sequence would have produced (see
// monitor/eval.go for the full argument).
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/faas"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Function is one fleet member. Arrivals may be given explicitly (small
// hand-built or pre-generated fleets) or generated on the fly from a
// seeded Poisson stream when Arrivals is nil — the streaming form is what
// keeps memory flat at fleet scale.
type Function struct {
	// ID orders the function inside the corpus; the block partition and
	// every floating-point fold follow this order.
	ID int
	// Name labels the function in the ledger and exemplars.
	Name string
	// Archetype and Arm classify the member for attribution (corpus app
	// it was derived from, and "original" vs "debloated"). Either may be
	// empty for unclassified fleets.
	Archetype string
	Arm       string
	// ColdInit is the init latency a cold start pays; Exec the handler
	// duration; MemoryMB the billed memory configuration.
	ColdInit time.Duration
	Exec     time.Duration
	// FallbackInit is the original image's cold init, paid on top of the
	// debloated attempt when a fallback-arm member hits an uncovered path
	// under a chaos replay (zero: the chaos engine derives a default).
	// Ignored outside chaos replays and for non-fallback arms.
	FallbackInit time.Duration
	MemoryMB     int
	// Arrivals, when non-nil, are explicit sorted invocation offsets.
	// When nil, arrivals stream from ArrivalStream(Seed, Rate, Period).
	Arrivals []time.Duration
	// Rate is the expected arrival count over the replay period; Seed
	// keys the function's private arrival stream.
	Rate float64
	Seed int64
}

// Config parameterizes a fleet replay.
type Config struct {
	// Workers is the worker-goroutine count. It affects wall-clock time
	// only — never any byte of the result (default GOMAXPROCS).
	Workers int
	// Blocks is the merge-partition count. It is part of the replay's
	// identity: the same Blocks value yields bit-identical results at any
	// worker count, while changing it may perturb last-bit floating-point
	// rollup sums (default 64, clamped to the function count).
	Blocks int
	// Period is the replay horizon for streamed arrivals.
	Period time.Duration
	// Resolution is the shard stores' window size. Their rings hold
	// Period plus a six-hour completion tail, so post-hoc SLO evaluation
	// is exact; Replay fails rather than evaluate a store a sample fell
	// out of.
	Resolution time.Duration
	// KeepAlive is the pool keep-alive policy (default 15 minutes).
	KeepAlive time.Duration
	// SLOs are evaluated over the merged store after the replay.
	SLOs []monitor.SLO
	// DashboardEvery renders a dashboard frame at this virtual interval
	// from the merged windows (0 disables frames).
	DashboardEvery time.Duration
	// TopSpenders and Exemplars size the top-K tables (defaults 5).
	TopSpenders int
	Exemplars   int
	// Seed keys the deterministic exemplar sampler.
	Seed int64
	// Pricing bills each invocation (default AWS).
	Pricing faas.Pricing
	// DisableTelemetry replays only the pool dynamics and counters — the
	// overhead baseline for benchmarking the telemetry plane.
	DisableTelemetry bool
	// LabelSeries additionally records labeled series into the shard
	// stores for mql label matchers: the built-in series under {arm="..."}
	// per arm, and the cost series split pro rata into
	// cost.usd{phase="init"} / cost.usd{phase="handler"} (the ledger's
	// decomposition, as queryable time series). Label cardinality is
	// bounded by the arm count, never the function count, so shard memory
	// stays flat.
	LabelSeries bool
	// Rules are recording rules (query.ParseRules) evaluated incrementally
	// during the replay: each shard sweeps its block's window boundaries
	// after the block replays and records the rule series into its private
	// store, and the shards merge in block-index order like every other
	// artifact. ParseRules restricts bodies to the distributive fragment,
	// which is exactly what makes the merged rule series independent of
	// the worker count.
	Rules []query.Rule
	// Chaos, when non-nil, replays every function through the chaos
	// engine: incident-window admission rejections, latency/brownout
	// stretches, churn flushes, graceful-degradation mechanisms, and the
	// chaos.* telemetry series feeding the resilience scorecard. The
	// engine's seed defaults to Seed and its pricing to Pricing. A nil
	// Chaos leaves every artifact byte-identical to a build without the
	// chaos layer (the gate hooks are bypassed entirely).
	Chaos *chaos.Config

	// chaosEngine is the validated engine built once per Replay from
	// Chaos; shared read-only across worker shards.
	chaosEngine *chaos.Engine

	// blockDone, when set, runs on the merge goroutine after each block
	// has been folded and released (test hook for memory-flatness
	// assertions).
	blockDone func(merged int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 64
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = monitor.DefaultResolution
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 15 * time.Minute
	}
	if cfg.TopSpenders <= 0 {
		cfg.TopSpenders = 5
	}
	if cfg.Exemplars <= 0 {
		cfg.Exemplars = 5
	}
	if cfg.Pricing == (faas.Pricing{}) {
		cfg.Pricing = faas.AWSPricing()
	}
	return cfg
}

// DefaultSLOs are the objectives a CLI fleet replay evaluates when the
// operator gives none: the cold-start budget FaaSLight motivates (at most
// 15% of invocations may pay an init) and an hourly spend budget sized to
// a 10k-function day. Both use the standard multi-window burn-rate
// parameters (SLO.WithDefaults).
func DefaultSLOs() []monitor.SLO {
	return []monitor.SLO{
		{Name: "fleet-cold-fraction", Kind: monitor.KindColdFraction, Budget: 0.15},
		{Name: "fleet-cost-burn", Kind: monitor.KindCostRate, BudgetUSD: 12},
	}
}

// DefaultChaosSLOs are the chaos-replay objectives: the standard fleet
// pair plus an availability budget (at most 2% of requests may fail;
// deliberately shed load is excluded — see monitor.KindAvailability).
func DefaultChaosSLOs() []monitor.SLO {
	return append(DefaultSLOs(),
		monitor.SLO{Name: "fleet-availability", Kind: monitor.KindAvailability, Budget: 0.02})
}

// partial is one block's private telemetry shard. A partial is owned by
// exactly one worker goroutine while its block replays, then handed to
// the merger; no accumulator is ever written from two goroutines. That
// single-writer ownership is what lets the replay write through lock-free
// handles: the sinks below, and the ledger buckets each function resolves
// on its first served invocation.
type partial struct {
	store  *monitor.Store
	ledger *monitor.Ledger // per function
	arms   *monitor.Ledger // per arm
	arch   *monitor.Ledger // per "archetype/arm"
	hist   *stats.Histogram
	ex     *exemplars

	// arrivals is the block's arrival generator, reseeded in place for
	// each streamed function.
	arrivals trace.Stream

	// Handles into store, resolved once per shard (nil when telemetry is
	// off): the built-in and per-SLO series, the arm-labeled built-ins
	// and phase-labeled cost series (LabelSeries), and the chaos.* series
	// (chaos replays).
	sink     *monitor.SampleSink
	armSinks map[string]*monitor.SampleSink
	costInit *monitor.Series
	costExec *monitor.Series
	chaos    chaosSeries

	invocations uint64
	coldStarts  uint64
	errors      uint64
	latest      time.Duration
	peakLive    int
	armFns      map[string]int
	// chaosArms accumulates per-arm resilience counters under a chaos
	// replay (nil otherwise). Integer counters and independent per-key
	// float sums, so the block-index merge order keeps it reproducible.
	chaosArms map[string]*chaos.ArmStats
}

func newPartial(cfg *Config) *partial {
	p := &partial{armFns: make(map[string]int)}
	if cfg.chaosEngine != nil {
		p.chaosArms = make(map[string]*chaos.ArmStats)
	}
	if cfg.DisableTelemetry {
		return p
	}
	p.store = monitor.NewStore(cfg.Resolution, cfg.windows())
	p.ledger = monitor.NewLedger()
	p.arms = monitor.NewLedger()
	p.arch = monitor.NewLedger()
	p.hist = stats.NewHistogram()
	p.ex = newExemplars(cfg.Exemplars, cfg.Seed)
	p.sink = p.store.Sink(cfg.SLOs)
	if cfg.LabelSeries {
		p.armSinks = make(map[string]*monitor.SampleSink)
		// The ledger's pro-rata init/handler split, re-recorded as
		// queryable time series.
		p.costInit = p.store.Handle(monitor.LabeledSeries("cost.usd", monitor.Label{Key: "phase", Val: "init"}))
		p.costExec = p.store.Handle(monitor.LabeledSeries("cost.usd", monitor.Label{Key: "phase", Val: "handler"}))
	}
	if cfg.chaosEngine != nil {
		p.chaos = newChaosSeries(p.store)
	}
	return p
}

// armSink returns the shard's arm-labeled sink, nil unless LabelSeries
// records labeled series for this arm.
func (p *partial) armSink(arm string) *monitor.SampleSink {
	if p.armSinks == nil || arm == "" {
		return nil
	}
	k, ok := p.armSinks[arm]
	if !ok {
		k = p.store.Sink(nil, monitor.Label{Key: "arm", Val: arm})
		p.armSinks[arm] = k
	}
	return k
}

// finish closes the block on its worker: the recording rules sweep the
// shard.
func (p *partial) finish(cfg *Config) {
	if cfg.DisableTelemetry {
		return
	}
	// Recording rules run here, on the worker, while the block's shard is
	// still private: each shard sweeps the boundaries its own block
	// reached, and the per-shard rule series then merge window-wise like
	// any other series. Rule bodies are restricted to the distributive
	// fragment (query.ParseRules), so the merged series equals the global
	// rule value — and the sweep depends only on the block partition,
	// never on the worker count.
	if len(cfg.Rules) > 0 {
		query.EvalRules(p.store, cfg.Rules, p.latest)
	}
}

// merge folds o into p. Call order across partials must be block-index
// order: that is the only scheduling-independent total order, and it is
// what makes every floating-point sum reproducible.
func (p *partial) merge(o *partial) error {
	if err := p.store.Merge(o.store); err != nil {
		return err
	}
	p.ledger.Merge(o.ledger)
	p.arms.Merge(o.arms)
	p.arch.Merge(o.arch)
	if p.hist != nil {
		p.hist.Merge(o.hist)
	}
	if p.ex != nil {
		p.ex.merge(o.ex)
	}
	p.invocations += o.invocations
	p.coldStarts += o.coldStarts
	p.errors += o.errors
	if o.latest > p.latest {
		p.latest = o.latest
	}
	if o.peakLive > p.peakLive {
		p.peakLive = o.peakLive
	}
	for arm, n := range o.armFns {
		p.armFns[arm] += n
	}
	for arm, s := range o.chaosArms {
		p.chaosArm(arm).Merge(s)
	}
	return nil
}

// chaosArm returns the arm's resilience accumulator, creating it on first
// touch.
func (p *partial) chaosArm(arm string) *chaos.ArmStats {
	if p.chaosArms == nil {
		p.chaosArms = make(map[string]*chaos.ArmStats)
	}
	s, ok := p.chaosArms[arm]
	if !ok {
		s = &chaos.ArmStats{}
		p.chaosArms[arm] = s
	}
	return s
}

// fnSink is one function's view of its block's shard during the replay.
type fnSink struct {
	p     *partial
	fn    *Function
	arm   *monitor.SampleSink
	fnKey uint64
	// rows are the function's ledger buckets (function, arm, and
	// archetype/arm; nil where the function has no arm or archetype),
	// resolved on its first served invocation so a function that never
	// serves adds no ledger row.
	rows     [3]*monitor.Phase
	resolved bool
}

func newFnSink(cfg *Config, fn *Function, p *partial) fnSink {
	return fnSink{p: p, fn: fn, arm: p.armSink(fn.Arm), fnKey: exemplarFnKey(cfg.Seed, fn.ID)}
}

// served folds the function's seq-th served invocation, completed at
// virtual time at, into every telemetry accumulator of the shard.
func (f *fnSink) served(at time.Duration, s *monitor.Sample, seq uint64) {
	p := f.p
	p.sink.Fold(at, s)
	f.arm.Fold(at, s)
	// Pro-rata duration-bill split, mirroring Phase.Add: the same dollars
	// the ledger attributes to init/handler, as series mql can window and
	// ratio (LabelSeries only; the handles are nil otherwise).
	if p.costInit != nil && s.Billed > 0 && s.CostUSD > 0 {
		if s.BilledInit > 0 {
			p.costInit.Record(at, s.CostUSD*float64(s.BilledInit)/float64(s.Billed))
		}
		if s.BilledExec > 0 {
			p.costExec.Record(at, s.CostUSD*float64(s.BilledExec)/float64(s.Billed))
		}
	}
	if !f.resolved {
		f.resolved = true
		fn := f.fn
		f.rows[0] = p.ledger.Bucket(fn.Name)
		if fn.Arm != "" {
			f.rows[1] = p.arms.Bucket(fn.Arm)
			if fn.Archetype != "" {
				f.rows[2] = p.arch.Bucket(fn.Archetype + "/" + fn.Arm)
			}
		}
	}
	for _, ph := range f.rows {
		if ph != nil {
			ph.Add(s)
		}
	}
	p.hist.Observe(s.E2E.Seconds())
	key := exemplarSampleKey(f.fnKey, seq)
	e := Exemplar{
		Function:  f.fn.Name,
		Archetype: f.fn.Archetype,
		Arm:       f.fn.Arm,
		At:        at,
		Init:      s.Init,
		E2E:       s.E2E,
		CostUSD:   s.CostUSD,
		Cold:      s.Cold,
		seq:       seq,
		key:       key,
		span:      exemplarSpanKey(key),
	}
	p.ex.offer(&e)
}

// replayFunction streams one function's arrivals through the keep-alive
// pool and folds every served invocation into the block's shard. Under a
// chaos replay the gated variant runs instead.
func replayFunction(cfg *Config, fn *Function, p *partial) {
	if cfg.chaosEngine != nil {
		replayChaosFunction(cfg, fn, p)
		return
	}
	next := fn.arrivalSource(cfg.Period, &p.arrivals)
	var seq uint64
	sink := newFnSink(cfg, fn, p)
	res := trace.SimulatePoolGated(next, fn.Exec, cfg.KeepAlive, trace.PoolGate{}, func(ev trace.PoolEvent) {
		var init time.Duration
		if ev.Cold {
			init = fn.ColdInit
		}
		e2e := init + fn.Exec
		at := ev.At + e2e // samples land at completion time
		p.invocations++
		if ev.Cold {
			p.coldStarts++
		}
		if at > p.latest {
			p.latest = at
		}
		if cfg.DisableTelemetry {
			seq++
			return
		}
		billed := cfg.Pricing.BillDuration(e2e)
		s := monitor.Sample{
			Function:   fn.Name,
			Cold:       ev.Cold,
			Class:      "ok",
			Init:       init,
			Exec:       fn.Exec,
			E2E:        e2e,
			BilledInit: init,
			BilledExec: fn.Exec,
			Billed:     billed,
			MemoryMB:   fn.MemoryMB,
			CostUSD:    cfg.Pricing.Cost(billed, fn.MemoryMB),
		}
		sink.served(at, &s, seq)
		seq++
	})
	if res.MaxInstances > p.peakLive {
		p.peakLive = res.MaxInstances
	}
	if fn.Arm != "" {
		p.armFns[fn.Arm]++
	}
}

// arrivalSource returns the function's arrival iterator: the explicit
// slice when present, otherwise the seeded Poisson stream, reseeded into
// s.
func (fn *Function) arrivalSource(period time.Duration, s *trace.Stream) func() (time.Duration, bool) {
	if fn.Arrivals != nil {
		arr := fn.Arrivals
		i := 0
		return func() (time.Duration, bool) {
			if i >= len(arr) {
				return 0, false
			}
			at := arr[i]
			i++
			return at, true
		}
	}
	s.Reset(fn.Seed, fn.Rate, period)
	return s.Next
}

// completionTail is how far past Period the shard rings reach: streamed
// arrivals fall inside Period, and a sample lands at its completion time.
const completionTail = 6 * time.Hour

// windows is the shard stores' ring capacity: every window from zero
// through Period plus the completion tail.
func (cfg *Config) windows() int {
	return int(cfg.Period/cfg.Resolution) + int(completionTail/cfg.Resolution) + 1
}

// checkRing refuses a merged shard whose store no longer holds every
// window of the replay: a sample dropped as too old for a ring, or a
// newest sample past the ring's reach (which slid the replay's first
// windows out), would make EvaluateSLOs diverge from a live monitor.
func checkRing(cfg *Config, final *partial) error {
	for _, name := range final.store.Names() {
		if n := final.store.Dropped(name); n > 0 {
			return fmt.Errorf("fleet: %d samples of series %q fell out of the %d-window store ring", n, name, cfg.windows())
		}
	}
	if reach := time.Duration(cfg.windows()) * cfg.Resolution; final.latest >= reach {
		return fmt.Errorf("fleet: a sample completed at %s, past the store ring's reach of %s (Period plus %s)",
			final.latest, reach, completionTail)
	}
	return nil
}

func validate(cfg *Config, fns []Function) error {
	if cfg.Period <= 0 {
		streamed := false
		for i := range fns {
			if fns[i].Arrivals == nil {
				streamed = true
				break
			}
		}
		if streamed {
			return fmt.Errorf("fleet: streamed arrivals need a positive Period")
		}
	}
	for i := range fns {
		fn := &fns[i]
		if fn.Name == "" {
			return fmt.Errorf("fleet: function %d has no name", i)
		}
		if fn.Exec <= 0 {
			return fmt.Errorf("fleet: function %q has non-positive Exec", fn.Name)
		}
		if fn.MemoryMB <= 0 {
			return fmt.Errorf("fleet: function %q has non-positive MemoryMB", fn.Name)
		}
		if !sort.SliceIsSorted(fn.Arrivals, func(a, b int) bool { return fn.Arrivals[a] < fn.Arrivals[b] }) {
			return fmt.Errorf("fleet: function %q has unsorted arrivals", fn.Name)
		}
	}
	return nil
}

// Replay runs the sharded replay and returns the merged result. fns must
// be in corpus order (ascending ID is conventional; what matters is that
// the caller presents the same order every run — the slice order IS the
// fold order).
func Replay(cfg Config, fns []Function) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(&cfg, fns); err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		cc := *cfg.Chaos
		if cc.Seed == 0 {
			cc.Seed = cfg.Seed
		}
		if cc.Pricing == (faas.Pricing{}) {
			cc.Pricing = cfg.Pricing
		}
		eng, err := chaos.NewEngine(cc)
		if err != nil {
			return nil, err
		}
		cfg.chaosEngine = eng
	}
	// Pre-apply SLO defaults once so Result.SLOs reports the evaluated
	// parameters; EvaluateSLOs applies the same idempotent defaults again.
	slos := make([]monitor.SLO, 0, len(cfg.SLOs))
	for _, def := range cfg.SLOs {
		slos = append(slos, def.WithDefaults(cfg.Resolution))
	}
	cfg.SLOs = slos

	n := len(fns)
	blocks := cfg.Blocks
	if blocks > n {
		blocks = n
	}
	if blocks < 1 {
		blocks = 1
	}
	workers := cfg.Workers
	if workers > blocks {
		workers = blocks
	}

	// Contiguous ID-ordered block ranges: block b replays fns[b*n/B,
	// (b+1)*n/B). The partition depends only on (n, Blocks), never on
	// Workers.
	parts := make([]*partial, blocks)
	done := make([]chan struct{}, blocks)
	for b := range done {
		done[b] = make(chan struct{})
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for b := range jobs {
				p := newPartial(&cfg)
				lo, hi := b*n/blocks, (b+1)*n/blocks
				for i := lo; i < hi; i++ {
					replayFunction(&cfg, &fns[i], p)
				}
				p.finish(&cfg)
				parts[b] = p
				close(done[b])
			}
		}()
	}
	go func() {
		for b := 0; b < blocks; b++ {
			jobs <- b
		}
		close(jobs)
	}()

	// Fold shards in block-index order as they complete, releasing each
	// one immediately — live telemetry is bounded by the merged result
	// plus the shards still in flight, regardless of invocation volume.
	final := newPartial(&cfg)
	for b := 0; b < blocks; b++ {
		<-done[b]
		if err := final.merge(parts[b]); err != nil {
			return nil, err
		}
		parts[b] = nil
		if cfg.blockDone != nil {
			cfg.blockDone(b + 1)
		}
	}

	res := &Result{
		Functions:   n,
		Workers:     workers,
		Blocks:      blocks,
		Period:      cfg.Period,
		Resolution:  cfg.Resolution,
		KeepAlive:   cfg.KeepAlive,
		Seed:        cfg.Seed,
		Invocations: final.invocations,
		ColdStarts:  final.coldStarts,
		Errors:      final.errors,
		PeakLive:    final.peakLive,
		Latest:      final.latest,
		SLOs:        cfg.SLOs,
		Store:       final.store,
		Ledger:      final.ledger,
		Arms:        final.arms,
		Archetypes:  final.arch,
		Latency:     final.hist,
		ArmFns:      final.armFns,
		topK:        cfg.TopSpenders,
	}
	if !cfg.DisableTelemetry {
		if err := checkRing(&cfg, final); err != nil {
			return nil, err
		}
		res.Alerts, res.FireCounts = monitor.EvaluateSLOs(final.store, cfg.SLOs, final.latest)
		if cfg.chaosEngine != nil {
			res.Chaos = chaos.BuildScorecard(cfg.chaosEngine, final.store,
				final.latest, final.chaosArms, final.armFns)
		}
		if cfg.DashboardEvery > 0 {
			res.Frames = renderFrames(&cfg, final, res.Alerts)
		}
		if final.ex != nil {
			res.Slowest = final.ex.slowest.sorted()
			res.Priciest = final.ex.priciest.sorted()
			res.Sampled = final.ex.sampled.sorted()
		}
	}
	return res, nil
}
