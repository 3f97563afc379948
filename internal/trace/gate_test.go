package trace

import (
	"reflect"
	"testing"
	"time"
)

func gateArrivals() []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); at < time.Hour; at += 37 * time.Second {
		out = append(out, at)
	}
	return out
}

// TestPassThroughGateMatchesStream: a gate whose hooks are all identity
// functions must reproduce the ungated slice simulation event-for-event,
// over a regular arrival grid and over generated Azure-shaped functions —
// the zero gate's contract, exercised through non-nil hooks.
func TestPassThroughGateMatchesStream(t *testing.T) {
	const keepAlive = 2 * time.Minute
	type run struct {
		arrivals []time.Duration
		busy     time.Duration
	}
	runs := []run{{gateArrivals(), 800 * time.Millisecond}}
	for _, f := range Generate(GenConfig{Functions: 12, Period: 2 * time.Hour, Seed: 3}).Functions {
		runs = append(runs, run{f.Arrivals, time.Duration(f.DurationMS * float64(time.Millisecond))})
	}
	for n, r := range runs {
		var plainEvents []PoolEvent
		plain := SimulatePoolObserved(r.arrivals, r.busy, keepAlive, func(e PoolEvent) {
			plainEvents = append(plainEvents, e)
		})

		i := 0
		next := func() (time.Duration, bool) {
			if i >= len(r.arrivals) {
				return 0, false
			}
			at := r.arrivals[i]
			i++
			return at, true
		}
		gate := PoolGate{
			Admit: func(time.Duration) bool { return true },
			Busy:  func(time.Duration, bool) time.Duration { return r.busy },
			Flush: func(time.Duration) time.Duration { return -1 },
		}
		var gatedEvents []PoolEvent
		gated := SimulatePoolGated(next, r.busy, keepAlive, gate, func(e PoolEvent) {
			gatedEvents = append(gatedEvents, e)
		})

		if plain != gated {
			t.Fatalf("run %d: results differ: %+v vs %+v", n, plain, gated)
		}
		if !reflect.DeepEqual(plainEvents, gatedEvents) {
			t.Fatalf("run %d: event streams differ under a pass-through gate", n)
		}
	}
}

// TestGateAdmitDrops: a dropped arrival never reaches the pool — not
// counted, not assigned, not observed.
func TestGateAdmitDrops(t *testing.T) {
	arrivals := gateArrivals()
	kept := 0
	gate := PoolGate{Admit: func(at time.Duration) bool { return at >= 10*time.Minute }}
	i := 0
	next := func() (time.Duration, bool) {
		if i >= len(arrivals) {
			return 0, false
		}
		at := arrivals[i]
		i++
		return at, true
	}
	res := SimulatePoolGated(next, time.Second, time.Minute, gate, func(e PoolEvent) {
		kept++
		if e.At < 10*time.Minute {
			t.Fatalf("dropped arrival observed at %v", e.At)
		}
	})
	want := 0
	for _, at := range arrivals {
		if at >= 10*time.Minute {
			want++
		}
	}
	if res.Invocations != want || kept != want {
		t.Fatalf("served %d, observed %d, want %d", res.Invocations, kept, want)
	}
}

// TestGateFlushCut: instances freed at or before the flush cut are gone
// (the churn wave's host recycle), so an arrival that would have been warm
// pays a cold start instead.
func TestGateFlushCut(t *testing.T) {
	arrivals := []time.Duration{0, 5 * time.Second}
	run := func(cut time.Duration) PoolResult {
		i := 0
		next := func() (time.Duration, bool) {
			if i >= len(arrivals) {
				return 0, false
			}
			at := arrivals[i]
			i++
			return at, true
		}
		gate := PoolGate{Flush: func(time.Duration) time.Duration { return cut }}
		return SimulatePoolGated(next, time.Second, time.Hour, gate, nil)
	}
	// No cut: the instance freed at 1s serves the 5s arrival warm.
	if res := run(-1); res.WarmStarts != 1 || res.ColdStarts != 1 {
		t.Fatalf("uncut: %+v, want 1 cold + 1 warm", res)
	}
	// Cut at 2s: the instance freed at 1s is recycled; both arrivals cold.
	if res := run(2 * time.Second); res.ColdStarts != 2 || res.WarmStarts != 0 {
		t.Fatalf("cut at 2s: %+v, want 2 cold", res)
	}
	// Cut at 500ms: the instance was busy across the cut and survives.
	if res := run(500 * time.Millisecond); res.WarmStarts != 1 {
		t.Fatalf("cut at 500ms: %+v, want the busy instance to survive", res)
	}
}
