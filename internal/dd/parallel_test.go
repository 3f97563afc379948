package dd

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelMatchesSequential(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{9},
		{3, 4, 5},
		{0, 5, 9},
		seq(10),
		{2, 3, 7, 8},
	}
	for _, needed := range cases {
		items := seq(10)
		seqMin, _ := Minimize(items, subsetOracle(needed))
		parMin, _ := MinimizeWith(items, subsetOracle(needed), Options{Workers: 4})
		if len(seqMin) != len(parMin) {
			t.Errorf("needed %v: sequential %v vs parallel %v", needed, seqMin, parMin)
			continue
		}
		for i := range seqMin {
			if seqMin[i] != parMin[i] {
				t.Errorf("needed %v: sequential %v vs parallel %v", needed, seqMin, parMin)
				break
			}
		}
	}
}

func TestParallelLargerSet(t *testing.T) {
	items := seq(120)
	needed := []int{7, 33, 34, 35, 90}
	seqMin, _ := Minimize(items, subsetOracle(needed))
	parMin, parStats := MinimizeWith(items, subsetOracle(needed), Options{Workers: 8})
	if len(parMin) != len(needed) || len(seqMin) != len(needed) {
		t.Fatalf("seq=%v par=%v", seqMin, parMin)
	}
	for i := range seqMin {
		if seqMin[i] != parMin[i] {
			t.Fatalf("results differ: seq=%v par=%v", seqMin, parMin)
		}
	}
	if parStats.Tests == 0 || parStats.Reductions == 0 {
		t.Errorf("stats = %+v", parStats)
	}
}

func TestParallelWorkerCap(t *testing.T) {
	var inFlight, maxInFlight int64
	oracle := func(keep []int) bool {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			prev := atomic.LoadInt64(&maxInFlight)
			if cur <= prev || atomic.CompareAndSwapInt64(&maxInFlight, prev, cur) {
				break
			}
		}
		defer atomic.AddInt64(&inFlight, -1)
		return subsetOracle([]int{1, 14})(keep)
	}
	MinimizeWith(seq(30), oracle, Options{Workers: 3})
	if atomic.LoadInt64(&maxInFlight) > 3 {
		t.Errorf("concurrency %d exceeded worker cap 3", maxInFlight)
	}
}

func TestParallelSingleWorkerFallsBack(t *testing.T) {
	calls := 0
	oracle := func(keep []int) bool {
		calls++ // safe: workers<=1 must be fully sequential
		return subsetOracle([]int{2})(keep)
	}
	min, stats := MinimizeWith(seq(8), oracle, Options{Workers: 1})
	if len(min) != 1 || min[0] != 2 {
		t.Errorf("min = %v", min)
	}
	if stats.Tests != calls {
		t.Errorf("tests=%d calls=%d", stats.Tests, calls)
	}
}

// recordingOracle wraps an oracle and records every evaluated subset.
func recordingOracle(needed []int) (Oracle[int], *map[string]bool) {
	seen := make(map[string]bool)
	var mu sync.Mutex
	inner := subsetOracle(needed)
	return func(keep []int) bool {
		mu.Lock()
		seen[indexKey(keep)] = true
		mu.Unlock()
		return inner(keep)
	}, &seen
}

// Wave cancellation: once a lower-indexed candidate passes, candidates in
// later waves are never launched. With items 0..7 and minimal set {0,7},
// the n=4 complement round's second complement (index 1) passes inside the
// first 2-worker wave, so complements 2 and 3 must never reach the oracle
// — while a 4-worker run launches the whole round as one wave and does
// evaluate complement 2.
func TestParallelWaveCancellation(t *testing.T) {
	needed := []int{0, 7}
	skipped := []string{
		indexKey([]int{0, 1, 2, 3, 6, 7}), // complement of {4,5}
		indexKey([]int{0, 1, 2, 3, 4, 5}), // complement of {6,7}
	}

	oracle2, seen2 := recordingOracle(needed)
	min2, _ := MinimizeWith(seq(8), oracle2, Options{Workers: 2})
	if len(min2) != 2 || min2[0] != 0 || min2[1] != 7 {
		t.Fatalf("minimized to %v, want [0 7]", min2)
	}
	for _, key := range skipped {
		if (*seen2)[key] {
			t.Errorf("workers=2 evaluated %q after a lower-indexed pass", key)
		}
	}

	oracle4, seen4 := recordingOracle(needed)
	min4, _ := MinimizeWith(seq(8), oracle4, Options{Workers: 4})
	if len(min4) != 2 {
		t.Fatalf("minimized to %v", min4)
	}
	if !(*seen4)[skipped[0]] {
		t.Error("workers=4 should launch the whole round as one wave")
	}
}

// Stats accounting must depend only on the worker count, never on
// goroutine scheduling: repeated runs agree exactly, and the minimized
// output matches sequential Minimize.
func TestParallelStatsDeterministic(t *testing.T) {
	items := seq(60)
	needed := []int{3, 31, 32, 55}
	seqMin, _ := Minimize(items, subsetOracle(needed))
	var first Stats
	for run := 0; run < 5; run++ {
		parMin, stats := MinimizeWith(items, subsetOracle(needed), Options{Workers: 4})
		if len(parMin) != len(seqMin) {
			t.Fatalf("run %d: parallel %v vs sequential %v", run, parMin, seqMin)
		}
		for i := range seqMin {
			if parMin[i] != seqMin[i] {
				t.Fatalf("run %d: parallel %v vs sequential %v", run, parMin, seqMin)
			}
		}
		if run == 0 {
			first = stats
			continue
		}
		if stats != first {
			t.Fatalf("run %d stats %+v differ from first run %+v", run, stats, first)
		}
	}
}

func TestParallelEmptyAndBroken(t *testing.T) {
	min, _ := MinimizeWith(nil, func(keep []string) bool { return true }, Options{Workers: 4})
	if len(min) != 0 {
		t.Error("empty input should minimize to nothing")
	}
	items := seq(5)
	min2, _ := MinimizeWith(items, func(keep []int) bool { return false }, Options{Workers: 4})
	if len(min2) != 5 {
		t.Error("broken baseline should return the full set")
	}
}

func BenchmarkMinimizeSequential(b *testing.B) {
	items := seq(150)
	needed := []int{10, 70, 71, 140}
	for i := 0; i < b.N; i++ {
		Minimize(items, subsetOracle(needed))
	}
}

func BenchmarkMinimizeParallel4(b *testing.B) {
	items := seq(150)
	needed := []int{10, 70, 71, 140}
	for i := 0; i < b.N; i++ {
		MinimizeWith(items, subsetOracle(needed), Options{Workers: 4})
	}
}
