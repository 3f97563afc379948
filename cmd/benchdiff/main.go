// Command benchdiff compares two `go test -json` benchmark logs: for every
// benchmark and unit reported in both, it prints each side's median over
// the log's samples and the change between them.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//
// Produce the logs with `go test -run xxx -bench . -benchmem -count N
// -json > FILE` (or `make bench`); `make bench-diff OLD=... NEW=...`
// wraps this command. Only the standard library is used, so it runs where
// benchstat is not installed. Medians, not means, because a shared host's
// samples carry one-sided outliers.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// samples holds one log's values per benchmark and unit, with benchmarks
// in first-seen order.
type samples struct {
	order  []string
	values map[string]map[string][]float64
}

// event is the part of a test2json event benchdiff reads.
type event struct {
	Action  string
	Package string
	Output  string
}

// parseLog reads a `go test -json` stream. Output is reassembled per
// package before it is split into lines, since test2json may emit one
// benchmark result line in more than one event.
func parseLog(r io.Reader) (*samples, error) {
	out := map[string]*strings.Builder{}
	var pkgs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if ev.Action != "output" {
			continue
		}
		b, ok := out[ev.Package]
		if !ok {
			b = &strings.Builder{}
			out[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s := &samples{values: map[string]map[string][]float64{}}
	for _, pkg := range pkgs {
		for _, line := range strings.Split(out[pkg].String(), "\n") {
			s.addLine(line)
		}
	}
	return s, nil
}

// addLine records a benchmark result line
// ("BenchmarkX-2  <iterations>  <value> <unit>  <value> <unit> ...");
// any other line is ignored.
func (s *samples) addLine(line string) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return
	}
	if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
		return
	}
	name := f[0]
	// Drop the -GOMAXPROCS suffix so logs from different hosts line up.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	units, ok := s.values[name]
	if !ok {
		units = map[string][]float64{}
		s.values[name] = units
		s.order = append(s.order, name)
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		units[f[i+1]] = append(units[f[i+1]], v)
	}
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// unitOrder lists the standard units first, then the rest alphabetically.
func unitOrder(units map[string][]float64) []string {
	rank := map[string]int{"ns/op": 0, "B/op": 1, "allocs/op": 2}
	out := make([]string, 0, len(units))
	for u := range units {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, iok := rank[out[i]]
		rj, jok := rank[out[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok != jok:
			return iok
		}
		return out[i] < out[j]
	})
	return out
}

// write prints the comparison table: one row per benchmark and unit that
// both logs report, in the new log's order.
func write(w io.Writer, old, cur *samples) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\told median\tnew median\tdelta\tn old/new")
	rows := 0
	for _, name := range cur.order {
		ou, ok := old.values[name]
		if !ok {
			continue
		}
		nu := cur.values[name]
		for _, unit := range unitOrder(nu) {
			ov, ok := ou[unit]
			if !ok {
				continue
			}
			om, nm := median(ov), median(nu[unit])
			delta := "~"
			if om != 0 {
				delta = fmt.Sprintf("%+.1f%%", (nm-om)/om*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%d/%d\n", name, unit, om, nm, delta, len(ov), len(nu[unit]))
			rows++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("no benchmark appears in both logs")
	}
	return nil
}

func load(path string) (*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parseLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func run(oldPath, newPath string) error {
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	return write(os.Stdout, old, cur)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
