// Package monitor is the operational-observability layer over the
// simulator: a ring-buffer time-series store on the simulated timeline, an
// SLO engine with multi-window burn-rate alerting, a cost-attribution
// ledger decomposing Eq.-1 bills into phases, and deterministic exporters
// (OpenMetrics exposition, periodic text dashboards).
//
// Where package obs answers "what happened" after a run, monitor watches a
// replay as it unfolds: every sample carries a virtual timestamp, alert
// evaluation happens at fixed resolution boundaries of that timeline, and
// all output is a pure function of the sample sequence — a fixed seed
// reproduces the alert log, dashboard, and exposition byte-for-byte. All
// entry points are nil-safe, so an unmonitored run executes the
// instrumented code paths unchanged.
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Rollup is one window's (or one aggregation's) mergeable summary. Sums
// and counts are order-independent; Max is idempotent under merge — the
// three together are what keeps per-worker stores mergeable without
// perturbing determinism.
type Rollup struct {
	Count uint64
	Sum   float64
	Max   float64
}

func (r *Rollup) add(v float64) {
	if r.Count == 0 || v > r.Max {
		r.Max = v
	}
	r.Count++
	r.Sum += v
}

func (r *Rollup) merge(o Rollup) {
	if o.Count == 0 {
		return
	}
	if r.Count == 0 || o.Max > r.Max {
		r.Max = o.Max
	}
	r.Count += o.Count
	r.Sum += o.Sum
}

// Merge folds another rollup into r (sums add, max folds idempotently) —
// the same combine Store.Merge applies window-wise, exported for callers
// accumulating window scans outside the package.
func (r *Rollup) Merge(o Rollup) { r.merge(o) }

// Mean is the windowed average (0 when empty).
func (r Rollup) Mean() float64 {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / float64(r.Count)
}

// series is one named metric's ring of fixed-resolution windows plus its
// cumulative (ring-independent) total.
type series struct {
	ring    []Rollup
	latest  int64 // highest absolute window index written; -1 when empty
	total   Rollup
	dropped uint64 // samples older than the ring reach at write time
}

// Store is a deterministic time-series database over simulated time:
// samples land in fixed-resolution windows held in a per-series ring
// buffer, with sum/count/max rollups. Two stores with the same geometry
// merge window-wise, so per-worker stores can be folded in a fixed order
// without changing any queryable value. All methods are nil-safe and safe
// for concurrent use; the single-writer handles (Series, SampleSink) are
// exempt — see Handle.
type Store struct {
	mu     sync.Mutex
	res    time.Duration
	cap    int
	series map[string]*series
}

// DefaultResolution and DefaultWindows keep a day of one-minute windows.
const (
	DefaultResolution = time.Minute
	DefaultWindows    = 24 * 60
)

// NewStore creates a store with the given window resolution and ring
// capacity; non-positive arguments take the defaults.
func NewStore(resolution time.Duration, windows int) *Store {
	if resolution <= 0 {
		resolution = DefaultResolution
	}
	if windows <= 0 {
		windows = DefaultWindows
	}
	return &Store{res: resolution, cap: windows, series: make(map[string]*series)}
}

// Resolution returns the window size.
func (s *Store) Resolution() time.Duration {
	if s == nil {
		return 0
	}
	return s.res
}

// windowIndex maps a timestamp to its absolute window index. Negative
// timestamps clamp to window 0: the simulated timeline starts at zero, so a
// negative `at` can only come from caller arithmetic underflow (e.g. a
// trailing window reaching before the run began), and folding it into the
// first window keeps such samples queryable instead of corrupting the ring
// with a negative index (int64 division would otherwise round toward zero
// and alias windows -res..res onto index 0 while windows further back went
// negative).
func (s *Store) windowIndex(at time.Duration) int64 {
	if at < 0 {
		at = 0
	}
	return int64(at / s.res)
}

func (s *Store) getSeries(name string) *series {
	se, ok := s.series[name]
	if !ok {
		se = &series{ring: make([]Rollup, s.cap), latest: -1}
		s.series[name] = se
	}
	return se
}

// Record lands one sample in the window containing `at`. Samples newer
// than the latest window advance the ring (zeroing skipped windows);
// samples older than the ring's reach are counted as dropped but still
// accumulate into the cumulative total.
func (s *Store) Record(name string, at time.Duration, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(s.getSeries(name), at, v)
}

// Series is a single-writer handle on one named series of a Store: its
// Record takes no lock and does no map lookup. A handle resolves its
// series on its first Record, so a handle that is never written leaves no
// series behind — Names and the exposition only list what was recorded.
type Series struct {
	st   *Store
	name string
	se   *series
}

// Handle returns a handle on the named series (nil on a nil store, and
// recording into a nil handle is a no-op).
//
// Handles skip the store's lock, so they carry a contract the locked
// methods do not: whoever records through a handle must be the store's
// only user while it does — no other writer and no concurrent reader —
// or must hold the store's lock (the package's own locked paths). The
// fleet replay satisfies it by construction: every shard store is private
// to the worker replaying its block until the block is handed to the
// merger. Resolution is lazy so a producer can resolve every series it
// might write up front without creating empty series it never writes.
func (s *Store) Handle(name string) *Series {
	if s == nil {
		return nil
	}
	return &Series{st: s, name: name}
}

// Record lands one sample in the handle's series (see Store.Record).
func (h *Series) Record(at time.Duration, v float64) {
	if h == nil {
		return
	}
	if h.se == nil {
		h.se = h.st.getSeries(h.name)
	}
	h.st.record(h.se, at, v)
}

// record is the one ring-advance implementation behind Store.Record and
// Series.Record.
func (s *Store) record(se *series, at time.Duration, v float64) {
	se.total.add(v)
	w := s.windowIndex(at)
	if se.latest >= 0 && w <= se.latest-int64(s.cap) {
		se.dropped++
		return
	}
	if w > se.latest {
		// Zero the windows the timeline skipped over (ring slots are
		// reused, so stale rollups must not leak into new windows).
		from := se.latest + 1
		if w-from >= int64(s.cap) {
			from = w - int64(s.cap) + 1
		}
		for i := from; i <= w; i++ {
			se.ring[i%int64(s.cap)] = Rollup{}
		}
		se.latest = w
	}
	se.ring[w%int64(s.cap)].add(v)
}

// Range aggregates the windows fully covered by [from, to). Windows that
// have slid out of the ring contribute nothing (their samples remain in
// Total). A missing series yields a zero rollup.
func (s *Store) Range(name string, from, to time.Duration) Rollup {
	var out Rollup
	if s == nil || to <= from {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok || se.latest < 0 {
		return out
	}
	lo := s.windowIndex(from)
	hi := s.windowIndex(to - 1) // inclusive window of the last covered instant
	if min := se.latest - int64(s.cap) + 1; lo < min {
		lo = min
	}
	if lo < 0 {
		lo = 0
	}
	if hi > se.latest {
		hi = se.latest
	}
	for w := lo; w <= hi; w++ {
		out.merge(se.ring[w%int64(s.cap)])
	}
	return out
}

// Scan visits the in-ring windows of a series intersecting [from, to) in
// ascending time order, calling fn with each window's start offset and its
// rollup (empty windows included — a window the timeline skipped is a real
// zero observation, which is what per-window quantiles need). Windows that
// slid out of the ring and windows past the series' latest write are not
// visited. fn runs under the store lock: it must not call back into the
// store (record rule output after the scan returns, not inside it). This
// is the query engine's window-scan primitive; Range is the fused
// aggregate of the same walk.
func (s *Store) Scan(name string, from, to time.Duration, fn func(start time.Duration, r Rollup)) {
	if s == nil || to <= from {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok || se.latest < 0 {
		return
	}
	lo := s.windowIndex(from)
	hi := s.windowIndex(to - 1)
	if min := se.latest - int64(s.cap) + 1; lo < min {
		lo = min
	}
	if lo < 0 {
		lo = 0
	}
	if hi > se.latest {
		hi = se.latest
	}
	for w := lo; w <= hi; w++ {
		fn(time.Duration(w)*s.res, se.ring[w%int64(s.cap)])
	}
}

// Total returns the series' cumulative rollup across the whole run,
// including samples that have slid out of the ring.
func (s *Store) Total(name string) Rollup {
	if s == nil {
		return Rollup{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok {
		return Rollup{}
	}
	return se.total
}

// Dropped returns how many samples arrived too old for the ring.
func (s *Store) Dropped(name string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok {
		return 0
	}
	return se.dropped
}

// Names returns the recorded series names, sorted.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.series))
	for name := range s.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Merge folds another store window-wise into s by absolute window index.
// Both stores must share resolution and capacity (the caller constructs
// per-worker stores from one config); mismatched geometry returns an
// explicit error with nothing folded — absolute window indices only line up
// when both rings share a resolution, so a silent partial merge would
// corrupt every series. A nil s or o is a no-op (nil monitor semantics).
// o must not be written concurrently.
func (s *Store) Merge(o *Store) error {
	if s == nil || o == nil {
		return nil
	}
	// Copy o's state out under its own lock, then fold under ours —
	// never holding both (see Registry.Merge for the deadlock this
	// avoids).
	o.mu.Lock()
	if o.res != s.res || o.cap != s.cap {
		ores, ocap := o.res, o.cap
		o.mu.Unlock()
		return fmt.Errorf("monitor: Store.Merge geometry mismatch: %v×%d windows into %v×%d",
			ores, ocap, s.res, s.cap)
	}
	type snap struct {
		name string
		se   series
	}
	snaps := make([]snap, 0, len(o.series))
	for name, se := range o.series {
		cp := *se
		cp.ring = append([]Rollup(nil), se.ring...)
		snaps = append(snaps, snap{name, cp})
	}
	o.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sn := range snaps {
		dst := s.getSeries(sn.name)
		dst.total.merge(sn.se.total)
		dst.dropped += sn.se.dropped
		if sn.se.latest < 0 {
			continue
		}
		if sn.se.latest > dst.latest {
			from := dst.latest + 1
			if sn.se.latest-from >= int64(s.cap) {
				from = sn.se.latest - int64(s.cap) + 1
			}
			for i := from; i <= sn.se.latest; i++ {
				dst.ring[i%int64(s.cap)] = Rollup{}
			}
			dst.latest = sn.se.latest
		}
		lo := sn.se.latest - int64(s.cap) + 1
		if min := dst.latest - int64(s.cap) + 1; lo < min {
			lo = min
		}
		if lo < 0 {
			lo = 0
		}
		for w := lo; w <= sn.se.latest; w++ {
			dst.ring[w%int64(s.cap)].merge(sn.se.ring[w%int64(s.cap)])
		}
	}
	return nil
}
