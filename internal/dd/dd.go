// Package dd implements the generic Delta Debugging program-minimization
// algorithm (Algorithm 1 of the paper, after Zeller's ddmin adapted to
// debloating by Heo et al.).
//
// Given a list of components A and an oracle O, DD finds a 1-minimal subset
// A* such that O(A*) = true: removing any single component from A* makes
// the oracle fail. Finding the true minimum is NP-complete, so 1-minimality
// is the practical target.
package dd

import (
	"strconv"
	"strings"
	"sync"
)

// Oracle tests whether a candidate subset of components satisfies the
// target property (for debloating: "the program still behaves correctly
// with only these components present").
type Oracle[T any] func(keep []T) bool

// Stats reports the work performed by one minimization.
type Stats struct {
	// Tests is the number of oracle invocations actually executed.
	Tests int
	// CacheHits counts oracle invocations answered from the memo table
	// (the paper's Figure 6 walkthrough notes that repeated subsets need
	// not be re-tested).
	CacheHits int
	// Reductions counts accepted reductions of the candidate set.
	Reductions int
	// MaxGranularity is the largest partition count n reached.
	MaxGranularity int
}

// Minimize runs DD over items and returns a 1-minimal subset, along with
// statistics. The oracle must accept the full set; if it does not, the full
// set is returned unchanged with Stats.Tests == 1 (nothing can be proven
// removable against a broken baseline).
//
// Indices into the original item list are used internally so memoization
// keys are stable and the returned subset preserves original order.
func Minimize[T any](items []T, oracle Oracle[T]) ([]T, Stats) {
	return MinimizeWith(items, oracle, Options{})
}

// MinimizeWith runs DD with explicit options: the worker count and an
// optional tracer recording rounds, oracle calls, and waves over the
// caller's simulated clock.
//
// Workers > 1 is the intra-module parallelization the paper's §9 proposes
// as future work ("multiple sets of attributes of the same module in
// parallel"). Each step's candidates — the partitions, then, if none
// passes, the complements — are tested in index-ordered waves of Workers
// concurrent oracle calls, and the step accepts the lowest-indexed passing
// candidate regardless of completion order. Once a wave contains a passing
// candidate no later wave is launched; the extra calls for higher-indexed
// candidates in the same wave are the price of the speedup (they count in
// Stats.Tests). A wave always runs to completion and its boundaries depend
// only on Workers, so the accepted subset — identical to the sequential
// algorithm's — and Stats are deterministic for a fixed worker count,
// never dependent on goroutine scheduling. With one worker every wave
// holds a single candidate, tested in order up to the first pass: the
// sequential algorithm.
//
// With Workers > 1 the oracle must be safe for concurrent invocation.
func MinimizeWith[T any](items []T, oracle Oracle[T], opts Options) ([]T, Stats) {
	workers := max(opts.Workers, 1)
	var stats Stats
	var mu sync.Mutex // guards stats and memo while a wave runs
	memo := make(map[string]bool)
	t := newTrace(opts, len(items))

	test := func(keep []int) bool {
		key := indexKey(keep)
		mu.Lock()
		v, ok := memo[key]
		if ok {
			stats.CacheHits++
		}
		mu.Unlock()
		if ok {
			t.cacheHit()
			return v
		}
		subset := make([]T, len(keep))
		for i, idx := range keep {
			subset[i] = items[idx]
		}
		v = t.oracleCall(len(keep), func() bool { return oracle(subset) })
		mu.Lock()
		stats.Tests++
		memo[key] = v
		mu.Unlock()
		return v
	}

	// firstPassing tests candidates 0..n-1 in index-ordered waves and
	// returns the lowest-indexed one that passes. cand builds candidate i
	// when its wave starts, so a step that passes early never builds the
	// rest.
	keeps := make([][]int, workers)
	pass := make([]bool, workers)
	firstPassing := func(n int, cand func(i int) []int) ([]int, bool) {
		for start := 0; start < n; start += workers {
			size := min(workers, n-start)
			t.wave(start, size, func() {
				if size == 1 {
					keeps[0] = cand(start)
					pass[0] = test(keeps[0])
					return
				}
				var wg sync.WaitGroup
				for i := 0; i < size; i++ {
					keeps[i] = cand(start + i)
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						pass[i] = test(keeps[i])
					}(i)
				}
				wg.Wait()
			})
			for i := 0; i < size; i++ {
				if pass[i] {
					t.waveCancel(n - start - size)
					return keeps[i], true
				}
			}
		}
		return nil, false
	}

	all := make([]int, len(items))
	for i := range all {
		all[i] = i
	}

	// Degenerate cases.
	if len(items) == 0 {
		t.finish(0, stats)
		return nil, stats
	}
	if !test(all) {
		t.finish(len(items), stats)
		return items, stats
	}
	// Fast path: if the empty set passes, everything is removable.
	if test(nil) {
		stats.Reductions++
		t.finish(0, stats)
		return nil, stats
	}

	current := all
	n := 2
	round := 0
	for {
		n = min(n, len(current))
		stats.MaxGranularity = max(stats.MaxGranularity, n)
		round++
		rs := t.startRound(round, n, len(current))
		parts := split(current, n)

		// Step 1: does some partition alone satisfy the oracle?
		keep, reduced := firstPassing(len(parts), func(i int) []int { return parts[i] })
		if reduced {
			n = 2
		} else if n > 1 {
			// Step 2: does some complement satisfy the oracle?
			keep, reduced = firstPassing(len(parts), func(i int) []int { return complement(current, parts[i]) })
			if reduced {
				n = max(n-1, 2)
			}
		}
		if reduced {
			current = keep
			stats.Reductions++
		}
		t.endRound(rs, reduced, len(current))

		// Step 3: refine granularity or stop.
		if !reduced {
			if n >= len(current) {
				break
			}
			n = min(2*n, len(current))
		}
		if len(current) <= 1 {
			// A single remaining component: it is needed (empty set was
			// tested above or will be covered by partition tests).
			if len(current) == 1 && test(nil) {
				current = nil
				stats.Reductions++
			}
			break
		}
	}

	out := make([]T, len(current))
	for i, idx := range current {
		out[i] = items[idx]
	}
	t.finish(len(out), stats)
	return out, stats
}

// split divides idxs into n contiguous, near-equal partitions.
func split(idxs []int, n int) [][]int {
	if n <= 0 {
		n = 1
	}
	parts := make([][]int, 0, n)
	size := len(idxs) / n
	rem := len(idxs) % n
	start := 0
	for i := 0; i < n; i++ {
		end := start + size
		if i < rem {
			end++
		}
		if end > start {
			parts = append(parts, idxs[start:end])
		}
		start = end
	}
	return parts
}

// complement returns current minus part (both sorted index slices).
func complement(current, part []int) []int {
	inPart := make(map[int]bool, len(part))
	for _, i := range part {
		inPart[i] = true
	}
	out := make([]int, 0, len(current)-len(part))
	for _, i := range current {
		if !inPart[i] {
			out = append(out, i)
		}
	}
	return out
}

func indexKey(keep []int) string {
	var sb strings.Builder
	for _, i := range keep {
		sb.WriteString(strconv.Itoa(i))
		sb.WriteByte(',')
	}
	return sb.String()
}
