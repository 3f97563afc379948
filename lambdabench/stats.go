package main

import (
	"fmt"
	"math"
	"sort"
)

// Percentile is one nearest-rank percentile with the sample count behind
// it. A tail percentile is only worth reporting when enough samples lie
// beyond it; Above counts them.
type Percentile struct {
	P     float64 // e.g. 90
	Value float64
	N     int // samples
	Above int // samples strictly greater than Value
}

// minAbove is how many samples must lie beyond a tail percentile for it to
// count as measured rather than as the largest few samples.
const minAbove = 10

// Qualified reports whether at least minAbove samples lie beyond p.
func (p Percentile) Qualified() bool { return p.Above >= minAbove }

func (p Percentile) String() string {
	q := ""
	if p.P > 50 && !p.Qualified() {
		q = fmt.Sprintf(", unqualified: fewer than %d samples above", minAbove)
	}
	return fmt.Sprintf("%.4f (n=%d, %d above%s)", p.Value, p.N, p.Above, q)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) Percentile {
	if len(xs) == 0 {
		return Percentile{P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	v := s[rank-1]
	above := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return Percentile{P: p, Value: v, N: len(s), Above: above}
}

// median is the midpoint median (the mean of the two middle samples for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
