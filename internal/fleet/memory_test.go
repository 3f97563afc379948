package fleet

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chaos"
)

// replayPeakGrowth replays pop and returns (peak GC'd heap growth over
// the pre-replay baseline, invocations). The peak is sampled at block
// merge boundaries via the engine's blockDone hook — the points where a
// leak proportional to invocation volume would be visible.
func replayPeakGrowth(t *testing.T, pop []Function) (uint64, uint64) {
	t.Helper()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	peak := base.HeapAlloc

	cfg := Config{
		Workers:    2,
		Blocks:     32,
		Period:     24 * time.Hour,
		Resolution: time.Minute,
		Seed:       1,
		blockDone: func(merged int) {
			if merged%4 != 0 {
				return // a GC per merge would dominate the test's runtime
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		},
	}
	res, err := Replay(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	return peak - base.HeapAlloc, res.Invocations
}

// TestReplayMemoryFlat pins the streaming contract: a replay with ~10x
// the arrivals may not grow the peak resident heap meaningfully beyond
// the smaller run's — memory is bounded by blocks × windows (plus the
// merged result), not by invocation volume. A per-invocation leak of even
// 16 bytes would add ~14 MB at the large scale and fail the bound.
func TestReplayMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-flatness run skipped under -short")
	}
	mkPop := func(median float64) []Function {
		return GeneratePopulation(PopConfig{
			Functions: 2000, Period: 24 * time.Hour, Seed: 6,
			DebloatedFraction: 0.5, RateMedian: median, RateSigma: 2.0, RateCap: 30000,
		}, testArchetypes())
	}
	smallGrowth, smallInv := replayPeakGrowth(t, mkPop(6))
	largeGrowth, largeInv := replayPeakGrowth(t, mkPop(60))
	t.Logf("small: %d invocations, peak growth %.1f MB", smallInv, float64(smallGrowth)/(1<<20))
	t.Logf("large: %d invocations, peak growth %.1f MB", largeInv, float64(largeGrowth)/(1<<20))

	if smallInv < 80_000 {
		t.Fatalf("small run too small to compare: %d invocations", smallInv)
	}
	if largeInv < 8*smallInv {
		t.Fatalf("large run not large enough: %d vs %d invocations", largeInv, smallInv)
	}
	// Identical blocks/windows/population size → near-identical footprint.
	// The slack absorbs GC timing noise, nothing more: it stays far below
	// what any per-invocation retention would cost.
	limit := smallGrowth + smallGrowth/2 + 8<<20
	if largeGrowth > limit {
		t.Errorf("peak heap grew with invocation volume: %d -> %d bytes (limit %d)",
			smallGrowth, largeGrowth, limit)
	}
}

// TestReplayAllocsPerInvocation pins the telemetry hot path's allocation
// budget: with the shard sinks, ledger buckets, and exemplar sets written
// through single-writer handles, a telemetry-on replay allocates per
// function and per shard, never per invocation. A single escaping value
// or string build in the per-invocation fold costs at least one object
// per invocation and fails the bound.
func TestReplayAllocsPerInvocation(t *testing.T) {
	pop := GeneratePopulation(PopConfig{
		Functions: 300, Period: 24 * time.Hour, Seed: 2,
		DebloatedFraction: 0.5, RateMedian: 200, RateSigma: 1.5, RateCap: 30000,
	}, testArchetypes())
	cfg := testConfig(1)
	cfg.Period = 24 * time.Hour
	cfg.Blocks = 4
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Replay(cfg, pop)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations < 50_000 {
		t.Fatalf("replay too small to measure: %d invocations", res.Invocations)
	}
	perInv := float64(after.Mallocs-before.Mallocs) / float64(res.Invocations)
	t.Logf("%d invocations, %.3f allocs/invocation", res.Invocations, perInv)
	if perInv >= 0.25 {
		t.Errorf("telemetry-on replay allocates %.3f objects per invocation, want < 0.25", perInv)
	}
}

// TestChaosReplayAllocsPerInvocation extends the allocation budget to the
// chaos replay: with every mitigation on through the canonical incident
// day, admitting and serving a request (bills, outcome, breaker window)
// allocates nothing, so the replay still allocates per function and per
// shard only. A per-request bill slice alone costs about one object per
// invocation and fails the bound.
func TestChaosReplayAllocsPerInvocation(t *testing.T) {
	pop := GeneratePopulation(PopConfig{
		Functions: 300, Period: 24 * time.Hour, Seed: 2,
		DebloatedFraction: 0.5, RateMedian: 200, RateSigma: 1.5, RateCap: 30000,
		ArmMix: []ArmShare{
			{Arm: chaos.ArmDebloated, Frac: 0.25},
			{Arm: chaos.ArmFallback, Frac: 0.25},
			{Arm: chaos.ArmBreaker, Frac: 0.25},
		},
	}, testArchetypes())
	cfg := testConfig(1)
	cfg.Period = 24 * time.Hour
	cfg.Blocks = 4
	cfg.SLOs = DefaultChaosSLOs()
	cfg.Chaos = &chaos.Config{Seed: 2, Incidents: chaos.DefaultIncidentDay(), Mitigations: chaos.AllMitigations()}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Replay(cfg, pop)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations < 50_000 || res.Chaos.Total.Hedges == 0 || res.Chaos.Total.Fallbacks == 0 {
		t.Fatalf("replay too small to measure: %d invocations, %d hedges, %d fallbacks",
			res.Invocations, res.Chaos.Total.Hedges, res.Chaos.Total.Fallbacks)
	}
	perInv := float64(after.Mallocs-before.Mallocs) / float64(res.Invocations)
	t.Logf("%d invocations, %.3f allocs/invocation", res.Invocations, perInv)
	if perInv > 0.25 {
		t.Errorf("chaos replay allocates %.3f objects per invocation, want <= 0.25", perInv)
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayBytesPerFunction pins the per-function cost of streamed
// arrivals: each shard reseeds one trace.Stream in place per function, so
// a telemetry-off replay allocates a few dozen bytes per function, not
// the ~5.4 KB a fresh math/rand source per function costs.
func TestReplayBytesPerFunction(t *testing.T) {
	const n = 4000
	pop := GeneratePopulation(PopConfig{
		Functions: n, Period: 24 * time.Hour, Seed: 3,
		DebloatedFraction: 0.5, RateMedian: 4, RateSigma: 1, RateCap: 1000,
	}, testArchetypes())
	cfg := Config{Workers: 2, Blocks: 8, Period: 24 * time.Hour, Seed: 3, DisableTelemetry: true}
	var res *Result
	var err error
	perFn := float64(allocatedBytes(func() { res, err = Replay(cfg, pop) })) / n
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations == 0 {
		t.Fatal("replay served nothing")
	}
	t.Logf("%d functions, %d invocations, %.0f B/function", n, res.Invocations, perFn)
	if perFn >= 1024 {
		t.Errorf("telemetry-off replay allocates %.0f B per function, want < 1 KiB", perFn)
	}
}

// TestGeneratePopulationBytesPerMember: the population generator reseeds
// one source in place per member, so beyond the result slice a member
// costs only its name string.
func TestGeneratePopulationBytesPerMember(t *testing.T) {
	const n = 4000
	archs := testArchetypes()
	pc := PopConfig{
		Functions: n, Period: 24 * time.Hour, Seed: 4,
		DebloatedFraction: 0.5, RateMedian: 12, RateSigma: 2.2, RateCap: 40000,
	}
	var pop []Function
	total := allocatedBytes(func() { pop = GeneratePopulation(pc, archs) })
	perMember := (float64(total) - float64(cap(pop))*float64(unsafe.Sizeof(Function{}))) / n
	t.Logf("%d members, %.0f B/member beyond the result slice", n, perMember)
	if perMember >= 256 {
		t.Errorf("GeneratePopulation allocates %.0f B per member beyond its result, want < 256", perMember)
	}
}
