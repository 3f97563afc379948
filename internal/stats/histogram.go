package stats

import "math"

// Histogram bucket layout. The layout is fixed so that any two Histograms
// are mergeable by bucket-wise addition: buckets are log-scale with
// histBucketsPerDecade buckets per decade, spanning 10^histMinDecade up to
// 10^histMaxDecade. Values are unit-agnostic; the observability layer
// observes latencies in seconds, so the range covers nanoseconds up to
// ~31 years with a relative bucket width of 10^(1/8) ≈ 1.33.
const (
	histBucketsPerDecade = 8
	histMinDecade        = -9
	histMaxDecade        = 12

	// HistogramBuckets is the fixed bucket count of every Histogram.
	HistogramBuckets = (histMaxDecade - histMinDecade) * histBucketsPerDecade
)

// Histogram is a fixed-layout log-scale histogram with approximate
// quantiles. The zero value is ready to use. It is not safe for concurrent
// use; the metrics registry serializes access.
//
// Quantile estimates carry the bucket's relative error (≤ 10^(1/8)-1 ≈ 33%
// in the worst case, typically much less), which is the usual trade for
// mergeability and O(1) observation. Exact extremes are tracked separately,
// so Quantile(0) and Quantile(1) are exact.
type Histogram struct {
	counts [HistogramBuckets]uint64
	// zeros counts non-positive observations (they have no log bucket).
	zeros uint64
	count uint64
	sum   float64
	min   float64
	max   float64
	// lo and hi bound the occupied log buckets, [lo, hi); lo == hi while
	// no positive value has been observed. Every bucket outside the span
	// is zero, so Quantile scans only the span.
	lo, hi int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketLog maps a positive value to its bucket index, clamping
// values outside the representable range into the edge buckets. It is the
// reference definition of the layout: histBucket answers the same index
// from a table, and the table is derived from this function.
func histBucketLog(v float64) int {
	idx := int(math.Floor((math.Log10(v) - histMinDecade) * histBucketsPerDecade))
	if idx < 0 {
		return 0
	}
	if idx >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return idx
}

// The exact bucket table. bucketLower[i] is the smallest positive float64
// that histBucketLog puts in bucket i or above (bucketLower[0] is the
// smallest positive float), found by bisecting the float64 bit patterns:
// for positive floats the bit order is the numeric order, so 63 halvings
// pin the boundary to the ulp. bucketStart[e] is the bucket of the
// smallest float with biased exponent e. One binary octave spans
// 8·log10(2) ≈ 2.4 buckets, so from there at most three comparisons
// against bucketLower finish the lookup. bucketMid holds each bucket's
// geometric midpoint, the value Quantile reports.
var (
	bucketLower [HistogramBuckets]float64
	bucketStart [1 << 11]uint8
	bucketMid   [HistogramBuckets]float64
)

func init() {
	bucketLower[0] = math.SmallestNonzeroFloat64
	for i := 1; i < HistogramBuckets; i++ {
		// Invariant: histBucketLog(lo) < i <= histBucketLog(hi).
		lo, hi := math.Float64bits(bucketLower[i-1]), math.Float64bits(math.MaxFloat64)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if histBucketLog(math.Float64frombits(mid)) >= i {
				hi = mid
			} else {
				lo = mid
			}
		}
		bucketLower[i] = math.Float64frombits(hi)
	}
	for e := range bucketStart {
		// Exponent 0 holds zero and the subnormals, all of which land in
		// bucket 0; exponent 2047 (Inf, NaN) never reaches histBucket.
		v := math.Float64frombits(uint64(max(e, 1)) << 52)
		b := 0
		for b+1 < HistogramBuckets && v >= bucketLower[b+1] {
			b++
		}
		bucketStart[e] = uint8(b)
	}
	for i := range bucketMid {
		bucketMid[i] = math.Pow(10, float64(histMinDecade)+(float64(i)+0.5)/histBucketsPerDecade)
	}
}

// histBucket maps a positive, finite value to its bucket index; it equals
// histBucketLog(v) for every such value.
func histBucket(v float64) int {
	b := int(bucketStart[math.Float64bits(v)>>52])
	for b+1 < HistogramBuckets && v >= bucketLower[b+1] {
		b++
	}
	return b
}

// Observe records one value. Zero is counted in a dedicated zero bucket
// (it has no log-scale bucket). NaN, infinities, and negative values are
// rejected outright: the layer observes durations and sizes, so such
// values are always instrumentation bugs, and admitting even one would
// poison Sum, Mean, and every quantile of the series for the whole run.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v == 0 {
		h.zeros++
		return
	}
	b := histBucket(v)
	h.counts[b]++
	h.widen(b, b+1)
}

// widen grows the occupied span to cover [lo, hi).
func (h *Histogram) widen(lo, hi int) {
	if h.lo == h.hi {
		h.lo, h.hi = lo, hi
		return
	}
	h.lo = min(h.lo, lo)
	h.hi = max(h.hi, hi)
}

// Merge folds o into h bucket-wise. A nil or empty o is a no-op, and so is
// merging a histogram into itself: h.Merge(h) must leave h unchanged, not
// double every bucket.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	h.zeros += o.zeros
	if o.lo == o.hi {
		return
	}
	for i := o.lo; i < o.hi; i++ {
		h.counts[i] += o.counts[i]
	}
	h.widen(o.lo, o.hi)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-th quantile, q in [0, 1]. The estimate is the
// geometric midpoint of the bucket holding the target rank, clamped to the
// exact observed [Min, Max]. Empty histograms yield 0.
func (h *Histogram) Quantile(q float64) float64 {
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
		// The rank falls among the non-positive observations.
		return h.clamp(0)
	}
	for i := h.lo; i < h.hi; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			return h.clamp(bucketMid[i])
		}
	}
	return h.max
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}
