package dd

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzMinimizeWorkersAgree: the single DD loop returns the same subset at
// every worker count, and that subset is 1-minimal. The oracle is a random
// monotone property — keep passes iff it contains every element of at
// least one of a few random "needed" sets — so the lowest-indexed-pass
// rule, not the oracle, is what makes the worker counts agree: with
// several needed sets, different acceptance orders would reach different
// 1-minimal subsets.
func FuzzMinimizeWorkersAgree(f *testing.F) {
	f.Add(uint8(10), int64(1))
	f.Add(uint8(48), int64(7))
	f.Add(uint8(1), int64(3))
	f.Add(uint8(0), int64(0))
	f.Add(uint8(33), int64(-42))
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64) {
		n := int(nRaw) % 49
		rng := rand.New(rand.NewSource(seed))
		needed := make([][]int, 1+rng.Intn(3))
		for i := range needed {
			for x := 0; x < n; x++ {
				if rng.Intn(1+rng.Intn(8)) == 0 {
					needed[i] = append(needed[i], x)
				}
			}
		}
		oracle := func(keep []int) bool {
			for _, set := range needed {
				if subsetOracle(set)(keep) {
					return true
				}
			}
			return false
		}

		want, _ := MinimizeWith(seq(n), oracle, Options{Workers: 1})
		if n > 0 && !oracle(want) {
			t.Fatalf("n=%d needed=%v: result %v fails the oracle", n, needed, want)
		}
		for drop := range want {
			if oracle(slices.Delete(slices.Clone(want), drop, drop+1)) {
				t.Fatalf("n=%d needed=%v: result %v is not 1-minimal (can drop %d)", n, needed, want, want[drop])
			}
		}
		for workers := 2; workers <= 8; workers++ {
			got, _ := MinimizeWith(seq(n), oracle, Options{Workers: workers})
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d needed=%v: workers=%d returned %v, workers=1 %v", n, needed, workers, got, want)
			}
		}
	})
}
