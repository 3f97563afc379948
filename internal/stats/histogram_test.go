package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) = %v on empty histogram", q, got)
		}
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 10 {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Mean() != 2.5 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

// relErr is the worst-case relative bucket error: one bucket spans a factor
// of 10^(1/8), so the geometric midpoint is within a factor of 10^(1/16).
var relErr = math.Pow(10, 1.0/16) - 1

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform over ~4 decades around typical latencies.
		v := math.Pow(10, -3+3*rng.Float64())
		xs = append(xs, v)
		h.Observe(v)
	}
	for _, p := range []float64{10, 50, 90, 95, 99} {
		exact := Percentile(xs, p)
		est := h.Quantile(p / 100)
		if math.Abs(est-exact)/exact > relErr+0.01 {
			t.Errorf("p%v: estimate %v vs exact %v (rel err %.3f)",
				p, est, exact, math.Abs(est-exact)/exact)
		}
	}
	// Extremes are exact.
	if h.Quantile(0) != Min(xs) || h.Quantile(1) != Max(xs) {
		t.Error("Quantile(0)/Quantile(1) should be the exact extremes")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		h.Observe(rng.ExpFloat64())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramZerosAndRejection(t *testing.T) {
	tests := []struct {
		name      string
		observe   []float64
		wantCount uint64
		wantMin   float64
		wantMax   float64
		wantP50   float64
	}{
		{
			name:    "zeros land in the zero bucket",
			observe: []float64{0, 0, 10},
			// Two of three observations are zero: the median is in the
			// zero bucket, clamped to the observed range.
			wantCount: 3, wantMin: 0, wantMax: 10, wantP50: 0,
		},
		{
			name:      "negatives rejected",
			observe:   []float64{-5, -0.001, 10},
			wantCount: 1, wantMin: 10, wantMax: 10, wantP50: 10,
		},
		{
			name:      "NaN and infinities rejected",
			observe:   []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2},
			wantCount: 1, wantMin: 2, wantMax: 2, wantP50: 2,
		},
		{
			name:      "only invalid samples leave it empty",
			observe:   []float64{math.NaN(), -1, math.Inf(1)},
			wantCount: 0, wantMin: 0, wantMax: 0, wantP50: 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tt.observe {
				h.Observe(v)
			}
			if h.Count() != tt.wantCount {
				t.Errorf("Count = %d, want %d", h.Count(), tt.wantCount)
			}
			if h.Min() != tt.wantMin || h.Max() != tt.wantMax {
				t.Errorf("Min/Max = %v/%v, want %v/%v", h.Min(), h.Max(), tt.wantMin, tt.wantMax)
			}
			if got := h.Quantile(0.5); got != tt.wantP50 {
				t.Errorf("median = %v, want %v", got, tt.wantP50)
			}
			if math.IsNaN(h.Sum()) || math.IsInf(h.Sum(), 0) {
				t.Errorf("Sum poisoned: %v", h.Sum())
			}
		})
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	for _, h := range []*Histogram{NewHistogram(), {}} {
		for _, q := range []float64{-1, 0, 0.25, 0.5, 0.95, 0.999, 1, 2} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("Quantile(%v) = %v on empty histogram, want 0", q, got)
			}
		}
	}
}

func TestHistogramMergeDisjointDecades(t *testing.T) {
	// a holds microsecond-scale samples, b holds kilosecond-scale ones —
	// their populated decades do not overlap, so the merge must keep both
	// populations intact and the quantiles must straddle the gap.
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(1e-6 * float64(i)) // 1µs .. 100µs
		b.Observe(1e3 * float64(i))  // 1000s .. 100000s
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Min() != 1e-6 || a.Max() != 1e5 {
		t.Errorf("merged min/max = %v/%v, want 1e-06/100000", a.Min(), a.Max())
	}
	// The lower half lives in the microsecond decades, the upper half in
	// the kilosecond decades; nothing may land in the empty gap between.
	if p25 := a.Quantile(0.25); p25 > 1e-4 {
		t.Errorf("p25 = %v, want within the microsecond population", p25)
	}
	if p75 := a.Quantile(0.75); p75 < 1e3 {
		t.Errorf("p75 = %v, want within the kilosecond population", p75)
	}
	wantSum := 0.0
	for i := 1; i <= 100; i++ {
		wantSum += 1e-6*float64(i) + 1e3*float64(i)
	}
	if math.Abs(a.Sum()-wantSum) > 1e-6 {
		t.Errorf("merged sum = %v, want %v", a.Sum(), wantSum)
	}
}

func TestHistogramOutOfRangeClamps(t *testing.T) {
	var h Histogram
	h.Observe(1e-30) // below the smallest bucket
	h.Observe(1e30)  // above the largest bucket
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	// Quantiles clamp to exact extremes, so out-of-range values round-trip.
	if h.Quantile(0) != 1e-30 || h.Quantile(1) != 1e30 {
		t.Errorf("extremes = %v/%v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), whole.Count())
	}
	if math.Abs(a.Sum()-whole.Sum()) > 1e-9 {
		t.Errorf("merged sum %v != %v", a.Sum(), whole.Sum())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max %v/%v != %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%v: merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging nil and empty histograms is a no-op.
	before := a.Count()
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != before {
		t.Error("nil/empty merge changed the histogram")
	}
}

func TestHistogramMergeSelf(t *testing.T) {
	var h Histogram
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i))
	}
	h.Observe(0)
	before := h
	// Self-merge must be a no-op. Without the aliasing guard, count/sum/zeros
	// double and the bucket loop reads counts it is mutating.
	h.Merge(&h)
	if h != before {
		t.Fatalf("self-merge changed the histogram: count %d -> %d, sum %v -> %v",
			before.Count(), h.Count(), before.Sum(), h.Sum())
	}
	// A merge with an equal but distinct histogram is NOT aliasing and must
	// still double: the guard keys on identity, not value.
	other := before
	h.Merge(&other)
	if h.Count() != 2*before.Count() {
		t.Fatalf("copy-merge count = %d, want %d", h.Count(), 2*before.Count())
	}
	if math.Abs(h.Sum()-2*before.Sum()) > 1e-9 {
		t.Fatalf("copy-merge sum = %v, want %v", h.Sum(), 2*before.Sum())
	}
}

// checkBucket fails t unless the table lookup agrees with the reference
// log formula on v (positive, finite). It skips t.Helper: the boundary
// sweep calls it millions of times.
func checkBucket(t *testing.T, v float64) {
	if got, want := histBucket(v), histBucketLog(v); got != want {
		t.Fatalf("histBucket(%v [%#x]) = %d, histBucketLog = %d", v, math.Float64bits(v), got, want)
	}
}

// TestHistBucketMatchesLog checks the exact bucket table against the
// log-formula reference: every float within ±20,000 ulps of each bucket
// boundary, log-spread values over and beyond the bucket range, and
// random bit patterns across the whole positive float64 range.
func TestHistBucketMatchesLog(t *testing.T) {
	const ulps = 20_000
	for i := 1; i < HistogramBuckets; i++ {
		b := math.Float64bits(bucketLower[i])
		if histBucketLog(bucketLower[i]) != i || histBucketLog(math.Float64frombits(b-1)) != i-1 {
			t.Fatalf("bucketLower[%d] = %v is not the boundary of bucket %d", i, bucketLower[i], i)
		}
		for u := b - ulps; u <= b+ulps; u++ {
			checkBucket(t, math.Float64frombits(u))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200_000; n++ {
		// Log-spread: 10^-12 .. 10^15, past both clamped edges.
		checkBucket(t, math.Pow(10, -12+27*rng.Float64()))
		// Raw bits: any positive finite float, subnormals included.
		bits := rng.Uint64() &^ (1 << 63)
		if v := math.Float64frombits(bits); v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			checkBucket(t, v)
		}
	}
	for _, v := range []float64{math.SmallestNonzeroFloat64, 1e-9, 1, 10, 1e12, math.MaxFloat64} {
		checkBucket(t, v)
	}
}

// FuzzHistBucketMatchesLog explores the table lookup against the
// log-formula reference over arbitrary positive finite floats.
func FuzzHistBucketMatchesLog(f *testing.F) {
	for _, v := range []float64{1e-9, 0.0421, 1, 3.1622776601683795, 1e12, 5e-324} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits &^ (1 << 63))
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		checkBucket(t, v)
	})
}

// fullScanQuantile is Quantile as a scan over every bucket, with each
// midpoint computed by math.Pow: the reference the occupied span and the
// midpoint table must reproduce bit for bit.
func fullScanQuantile(h *Histogram, q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	cum := float64(h.zeros)
	if cum >= target {
		return h.clamp(0)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			return h.clamp(math.Pow(10, float64(histMinDecade)+(float64(i)+0.5)/histBucketsPerDecade))
		}
	}
	return h.max
}

// TestQuantileOccupiedSpan drives random Observe/Merge sequences — zeros,
// out-of-range values, empty and self merges included — and requires
// every quantile to equal the full-scan reference.
func TestQuantileOccupiedSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qs := []float64{-0.5, 0, 1e-9, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12, 1, 2}
	for trial := 0; trial < 300; trial++ {
		hs := make([]Histogram, 4)
		for step := 0; step < 60; step++ {
			h := &hs[rng.Intn(len(hs))]
			switch r := rng.Intn(10); {
			case r < 6:
				// A narrow decade per trial keeps spans short; a rare wide
				// draw reaches the clamped edges.
				lo, width := -3+rng.Float64()*6, 1.0
				if rng.Intn(8) == 0 {
					lo, width = -14, 30
				}
				h.Observe(math.Pow(10, lo+width*rng.Float64()))
			case r < 7:
				h.Observe(0)
			case r < 9:
				h.Merge(&hs[rng.Intn(len(hs))]) // sometimes itself, sometimes empty
			default:
				h.Merge(NewHistogram())
			}
			for i := range hs {
				for _, q := range qs {
					if got, want := hs[i].Quantile(q), fullScanQuantile(&hs[i], q); got != want {
						t.Fatalf("trial %d step %d hist %d: Quantile(%v) = %v, full scan %v",
							trial, step, i, q, got, want)
					}
				}
			}
		}
	}
}
