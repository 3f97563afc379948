package main

import (
	"strings"
	"testing"
)

// TestDiffFixtures compares the two fixture logs. They cover a result line
// split across two events, differing -GOMAXPROCS suffixes, even and odd
// sample counts, a zero baseline, and benchmarks present on one side only
// (dropped from the table).
func TestDiffFixtures(t *testing.T) {
	old, err := load("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := load("testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := write(&b, old, cur); err != nil {
		t.Fatal(err)
	}
	want := `benchmark              unit       old median  new median  delta    n old/new
BenchmarkSeed          ns/op      1100        1000        -9.1%    2/2
BenchmarkSeed          B/op       64          0           -100.0%  2/2
BenchmarkReplay/chaos  ns/op      600         350         -41.7%   3/3
BenchmarkReplay/chaos  B/op       100         0           -100.0%  3/3
BenchmarkReplay/chaos  allocs/op  2           0           -100.0%  3/3
BenchmarkReplay/chaos  inv/s      1000        1700        +70.0%   3/3
`
	if got := b.String(); got != want {
		t.Errorf("diff table:\n%s\nwant:\n%s", got, want)
	}

	// Reversed, the zero baselines print "~" instead of a percentage.
	b.Reset()
	if err := write(&b, cur, old); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "BenchmarkReplay/chaos  allocs/op  0           2           ~") {
		t.Errorf("zero baseline not marked:\n%s", b.String())
	}
}

func TestDiffNoOverlap(t *testing.T) {
	a, err := parseLog(strings.NewReader(`{"Action":"output","Package":"p","Output":"BenchmarkA-2 \t 1\t 5 ns/op\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseLog(strings.NewReader(`{"Action":"output","Package":"p","Output":"BenchmarkB-2 \t 1\t 5 ns/op\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := write(&out, a, b); err == nil {
		t.Error("logs without a common benchmark compared without error")
	}
	if _, err := parseLog(strings.NewReader("not json\n")); err == nil {
		t.Error("a non-JSON log parsed without error")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
