package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sourceTestSeeds are the seeds whose reduction math/rand special-cases
// (zero, signs, multiples of 2³¹−1, the int64 extremes, the zero
// substitute itself) plus 240 seeds spread over the whole int64 range.
func sourceTestSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, m - 1, m + 1,
		math.MinInt64, math.MaxInt64, 89482311, -89482311,
	}
	x := uint64(0x243F6A8885A308D3)
	for i := 0; i < 240; i++ {
		x += 0x9E3779B97F4A7C15
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		seeds = append(seeds, int64(z^z>>31))
	}
	return seeds
}

// sourceDraws crosses the 607-word register several times, so words
// written back by earlier draws are read again.
const sourceDraws = 3000

// TestSourceMatchesMathRand pins Source to math/rand bit for bit: fresh
// and in-place reseeded Sources produce rand.NewSource's raw stream, and
// a rand.Rand over either produces the same Intn, Float64, NormFloat64
// and ExpFloat64 values the fleet draws.
func TestSourceMatchesMathRand(t *testing.T) {
	reused := NewSource(7)
	reused.Uint64() // leave state behind for the in-place reseeds to clear
	reusedRand := rand.New(reused)
	for _, seed := range sourceTestSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		fresh := NewSource(seed)
		reused.Seed(seed)
		for i := 0; i < sourceDraws; i++ {
			w := want.Uint64()
			if g := fresh.Uint64(); g != w {
				t.Fatalf("seed %d: fresh draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
			if g := reused.Uint64(); g != w {
				t.Fatalf("seed %d: reseeded draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		if g, w := fresh.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 = %d, math/rand %d", seed, g, w)
		}

		std := rand.New(rand.NewSource(seed))
		reused.Seed(seed)
		for i := 0; i < sourceDraws/4; i++ {
			n := 1 + i%97
			if g, w := reusedRand.Intn(n), std.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, n, i, g, w)
			}
			if g, w := reusedRand.Float64(), std.Float64(); g != w {
				t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := reusedRand.NormFloat64(), std.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 #%d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := reusedRand.ExpFloat64(), std.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand explores seeds and draw counts beyond the
// fixed list, with an in-place reseed between two seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceTestSeeds()[:13] {
		f.Add(seed, seed^0x5DEECE66D, uint16(700))
	}
	f.Fuzz(func(t *testing.T, first, seed int64, n uint16) {
		s := NewSource(first)
		for i := 0; i < int(n%1300); i++ {
			s.Uint64()
		}
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 700+int(n); i++ {
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d after %d: draw %d = %#x, math/rand %#x", seed, first, i, g, w)
			}
		}
	})
}

// referenceArrivals is the thinning loop Stream.Next implements, written
// out over a stdlib generator.
func referenceArrivals(seed int64, expected float64, period time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	base := expected / period.Seconds()
	maxRate := base * 1.6
	limit := period.Seconds()
	var out []time.Duration
	if maxRate <= 0 {
		return out
	}
	for t := 0.0; ; {
		t += rng.ExpFloat64() / maxRate
		if t >= limit {
			return out
		}
		rate := base * (1 + 0.6*math.Sin(2*math.Pi*t/limit-math.Pi/2))
		if rng.Float64() < rate/maxRate {
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
}

// TestStreamMatchesReference: a Stream reused through Reset, and
// ArrivalStream, yield exactly the arrivals of the thinning loop over
// rand.NewSource — the lazy seeding moves no arrival.
func TestStreamMatchesReference(t *testing.T) {
	var s Stream
	for i, seed := range sourceTestSeeds()[:60] {
		expected := []float64{0, 0.2, 3, 40, 900, 20000}[i%6]
		period := []time.Duration{time.Hour, 24 * time.Hour}[i%2]
		want := referenceArrivals(seed, expected, period)

		s.Reset(seed, expected, period)
		var got []time.Duration
		for at, ok := s.Next(); ok; at, ok = s.Next() {
			got = append(got, at)
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("seed %d: stream resumed after ending", seed)
		}
		next := ArrivalStream(seed, expected, period)
		var fresh []time.Duration
		for at, ok := next(); ok; at, ok = next() {
			fresh = append(fresh, at)
		}
		if len(got) != len(want) || len(fresh) != len(want) {
			t.Fatalf("seed %d: %d reset / %d fresh arrivals, reference %d", seed, len(got), len(fresh), len(want))
		}
		for j := range want {
			if got[j] != want[j] || fresh[j] != want[j] {
				t.Fatalf("seed %d: arrival %d = %v reset / %v fresh, reference %v", seed, j, got[j], fresh[j], want[j])
			}
		}
	}
}

// TestStreamResetAllocsNothing: reseeding a used Stream and drawing from
// it allocates nothing — the property the fleet replay's per-function
// reseed depends on.
func TestStreamResetAllocsNothing(t *testing.T) {
	var s Stream
	s.Reset(1, 50, time.Hour)
	seed := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		seed++
		s.Reset(seed, 50, time.Hour)
		s.Next()
	}); n != 0 {
		t.Errorf("Reset+Next allocates %v objects, want 0", n)
	}
}
