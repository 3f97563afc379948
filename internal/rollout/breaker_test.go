package rollout

import (
	"math/rand"
	"testing"
	"time"
)

// refBreaker is the breaker's original closed-state bookkeeping, kept as
// the differential reference: prune slices the expired prefix off the
// window, and every observe rescans the window for its fallback count.
type refBreaker struct {
	cfg      BreakerConfig
	state    breakerState
	window   []breakerSample
	consec   int
	probes   int
	openedAt time.Duration
	opens    int
	rate     float64
	count    int
}

func (b *refBreaker) prune(now time.Duration) {
	cut := now - b.cfg.Window
	i := 0
	for i < len(b.window) && b.window[i].at <= cut {
		i++
	}
	b.window = b.window[i:]
}

func (b *refBreaker) observe(at time.Duration, fallback bool) string {
	switch b.state {
	case breakerOpen:
		return ""
	case breakerHalfOpen:
		if fallback {
			b.state = breakerOpen
			b.openedAt = at
			b.opens++
			b.probes = 0
			return "reopen"
		}
		b.probes++
		if b.probes >= b.cfg.Probes {
			b.state = breakerClosed
			b.window = nil
			b.consec = 0
			b.probes = 0
			return "close"
		}
		return ""
	}
	b.prune(at)
	b.window = append(b.window, breakerSample{at: at, fallback: fallback})
	if fallback {
		b.consec++
	} else {
		b.consec = 0
	}
	fallbacks := 0
	for _, s := range b.window {
		if s.fallback {
			fallbacks++
		}
	}
	rate := float64(fallbacks) / float64(len(b.window))
	trip := (b.cfg.Consecutive > 0 && b.consec >= b.cfg.Consecutive) ||
		(b.cfg.MinRequests > 0 && len(b.window) >= b.cfg.MinRequests && rate >= b.cfg.FallbackRate)
	if trip {
		b.state = breakerOpen
		b.openedAt = at
		b.opens++
		b.rate = rate
		b.count = len(b.window)
		b.window = nil
		b.consec = 0
		return "open"
	}
	return ""
}

func (b *refBreaker) tryHalfOpen(now time.Duration) bool {
	if b.state != breakerOpen || now < b.openedAt+b.cfg.Cooldown {
		return false
	}
	b.state = breakerHalfOpen
	b.probes = 0
	return true
}

// TestBreakerMatchesReference drives the compacting, counting breaker and
// the slide-and-rescan reference through the same random fallback
// sequences — calm stretches, storms, bursts at one instant, long gaps —
// and requires the same transition at every step, the same trip
// snapshot, and the same Opens().
func TestBreakerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfgs := []BreakerConfig{
		DefaultBreakerConfig(),
		{Window: time.Minute, MinRequests: 4, FallbackRate: 0.5, Consecutive: 3, Cooldown: 2 * time.Minute, Probes: 2},
		{Window: 30 * time.Second, MinRequests: 0, FallbackRate: 0.3, Consecutive: 0, Cooldown: time.Minute, Probes: 1},
		{Window: 5 * time.Minute, MinRequests: 20, FallbackRate: 0.2, Consecutive: 0, Cooldown: 10 * time.Minute, Probes: 4},
	}
	opens, closes := 0, 0
	for trial := 0; trial < 200; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		got := NewBreaker(cfg)
		ref := &refBreaker{cfg: cfg}
		at := time.Duration(0)
		pFb := 0.02
		for step := 0; step < 3000; step++ {
			if rng.Intn(200) == 0 {
				pFb = []float64{0, 0.02, 0.3, 0.6, 1}[rng.Intn(5)]
			}
			switch r := rng.Intn(100); {
			case r < 5: // same instant
			case r < 7:
				at += time.Duration(rng.Intn(20)) * time.Minute
			default:
				at += time.Duration(rng.Intn(4000)) * time.Millisecond
			}
			fb := rng.Float64() < pFb
			// The chaos engine's call pattern: probe the cooldown, then
			// observe unless the breaker is (still) open.
			h1, h2 := got.TryHalfOpen(at), ref.tryHalfOpen(at)
			if h1 != h2 {
				t.Fatalf("trial %d step %d: TryHalfOpen = %v, reference %v", trial, step, h1, h2)
			}
			if got.State() == "OPEN" {
				continue
			}
			e1, e2 := got.Observe(at, fb), ref.observe(at, fb)
			if e1 != e2 || got.b.state != ref.state || got.b.rate != ref.rate || got.b.count != ref.count {
				t.Fatalf("trial %d step %d: event %q state %s trip %v/%d, reference %q %s %v/%d",
					trial, step, e1, got.b.state, got.b.rate, got.b.count, e2, ref.state, ref.rate, ref.count)
			}
			if e1 == "close" {
				closes++
			}
			if len(got.b.window) != len(ref.window) {
				t.Fatalf("trial %d step %d: window %d samples, reference %d", trial, step, len(got.b.window), len(ref.window))
			}
		}
		if got.Opens() != ref.opens {
			t.Fatalf("trial %d: Opens() = %d, reference %d", trial, got.Opens(), ref.opens)
		}
		opens += ref.opens
	}
	t.Logf("%d opens, %d closes", opens, closes)
	if opens < 1000 || closes < 200 {
		t.Errorf("sequences exercised too few transitions: %d opens, %d closes", opens, closes)
	}
}

// TestBreakerObserveAllocFree: once the window's backing array has grown
// to the steady traffic's size, a closed breaker's observe allocates
// nothing — prune compacts in place instead of slicing the array away.
func TestBreakerObserveAllocFree(t *testing.T) {
	b := newBreaker(DefaultBreakerConfig())
	at := time.Duration(0)
	i := 0
	step := func() {
		at += 100 * time.Millisecond
		i++
		if ev := b.observe(at, i%10 == 0); ev != "" {
			t.Fatalf("steady traffic tripped the breaker: %s", ev)
		}
	}
	batch := func() {
		for n := 0; n < 20000; n++ {
			step()
		}
	}
	batch()
	// One measured batch (after AllocsPerRun's warm-up batch) reports the
	// batch's total: an occasional regrowth of the window's array counts,
	// where a per-call average would round it away.
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("20000 steady-state observes allocate %v objects, want 0", allocs)
	}
}
