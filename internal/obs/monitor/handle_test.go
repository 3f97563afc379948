package monitor

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// dumpStore reads every observable of a store: names, totals, drop
// counts, and each series' in-ring windows.
func dumpStore(st *Store) map[string][]Rollup {
	out := make(map[string][]Rollup)
	for _, name := range st.Names() {
		rows := []Rollup{st.Total(name), {Count: st.Dropped(name)}}
		st.Scan(name, 0, 24*time.Hour, func(_ time.Duration, r Rollup) { rows = append(rows, r) })
		out[name] = rows
	}
	return out
}

// TestHandleMatchesRecord: a handle is the same per-series record as
// Store.Record without the lock and the lookup — ring advance, skipped
// window zeroing, eviction, and drops included.
func TestHandleMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	locked, handled := NewStore(time.Second, 8), NewStore(time.Second, 8)
	names := []string{"a", "b", LabeledSeries("a", Label{Key: "arm", Val: "x"})}
	handles := make([]*Series, len(names))
	for i, name := range names {
		handles[i] = handled.Handle(name)
	}
	at := time.Duration(0)
	for i := 0; i < 2000; i++ {
		// Mostly forward in time, with jumps past the ring and samples
		// older than its reach.
		switch rng.Intn(10) {
		case 0:
			at += time.Duration(rng.Intn(20)) * time.Second
		case 1:
			at -= time.Duration(rng.Intn(12)) * time.Second
		default:
			at += time.Duration(rng.Intn(800)) * time.Millisecond
		}
		j := rng.Intn(len(names))
		v := float64(rng.Intn(64)) / 8
		locked.Record(names[j], at, v)
		handles[j].Record(at, v)
	}
	if got, want := dumpStore(handled), dumpStore(locked); !reflect.DeepEqual(got, want) {
		t.Fatalf("handle-recorded store differs from Store.Record:\n%v\nvs\n%v", got, want)
	}
}

// TestHandleLazy: resolving handles (and whole sinks) up front must not
// create series — a series appears in Names and the exposition only once
// something was recorded into it.
func TestHandleLazy(t *testing.T) {
	st := NewStore(time.Second, 8)
	st.Handle("never")
	sink := st.Sink([]SLO{{Name: "lat", Kind: KindLatency, Threshold: time.Second}})
	if names := st.Names(); len(names) != 0 {
		t.Fatalf("unwritten handles created series: %v", names)
	}
	sink.Fold(time.Second, &Sample{Class: "ok", E2E: 10 * time.Millisecond, CostUSD: 1e-6})
	if got, want := st.Names(), []string{seriesCost, seriesTotal}; !reflect.DeepEqual(got, want) {
		t.Fatalf("names after a warm ok sample = %v, want %v", got, want)
	}
	var nilStore *Store
	nilStore.Handle("x").Record(0, 1)
	nilStore.Sink(nil).Fold(0, &Sample{})
}

// TestLedgerBucketMatchesRecord: adding through a bucket is Ledger.Record
// without the lock, and a bucket is a row as soon as it is resolved.
func TestLedgerBucketMatchesRecord(t *testing.T) {
	samples := []Sample{
		{Function: "f", Cold: true, Class: "ok", BilledInit: 300 * time.Millisecond,
			BilledExec: 100 * time.Millisecond, Billed: 400 * time.Millisecond, CostUSD: 4e-6},
		{Function: "f", Class: "error", BilledExec: 90 * time.Millisecond,
			Billed: 100 * time.Millisecond, CostUSD: 1e-6, RestoreFeeUSD: 2e-7},
	}
	locked, bucketed := NewLedger(), NewLedger()
	ph := bucketed.Bucket("f")
	for i := range samples {
		locked.Record(&samples[i])
		ph.Add(&samples[i])
	}
	if got, want := bucketed.Function("f"), locked.Function("f"); got != want {
		t.Fatalf("bucket = %+v, want %+v", got, want)
	}
	bucketed.Bucket("silent")
	if got := bucketed.Functions(); !reflect.DeepEqual(got, []string{"f", "silent"}) {
		t.Fatalf("functions = %v", got)
	}
}

// TestMonitorSinkConcurrentReaders: the monitor folds through its sinks
// under the store's lock, so its store stays safe to read while samples
// arrive from several goroutines (run under -race).
func TestMonitorSinkConcurrentReaders(t *testing.T) {
	m := New(Config{Resolution: time.Second, LabelSeries: true,
		SLOs: []SLO{{Name: "lat", Kind: KindLatency, Threshold: 50 * time.Millisecond}}})
	const writers, each = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Observe(time.Duration(i)*time.Second, Sample{
					Function: "f" + strconv.Itoa(w), Class: "ok",
					E2E: time.Duration(i%100) * time.Millisecond, CostUSD: 1e-6,
				})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		m.OpenMetrics()
		m.Store().Names()
	}
	wg.Wait()
	if got := m.Store().Total(seriesTotal).Count; got != writers*each {
		t.Fatalf("req.total count = %d, want %d", got, writers*each)
	}
}
