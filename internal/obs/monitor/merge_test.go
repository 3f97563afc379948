package monitor

import (
	"sync"
	"testing"
	"time"
)

// mergeFixture is a store with two series, one of which has slid its ring
// and dropped a late sample.
func mergeFixture() *Store {
	s := NewStore(time.Second, 4)
	s.Record("a", 0, 1)
	s.Record("a", 1500*time.Millisecond, 2)
	s.Record("a", 1700*time.Millisecond, 4)
	s.Record("b", 2*time.Second, 3)
	s.Record("b", 9*time.Second, 5) // slides the ring past window 2
	s.Record("b", time.Second, 7)   // too old for the ring: dropped
	return s
}

// TestStoreMergeSelfDoubles pins the self-merge result: s.Merge(s) folds
// s's rings into themselves, so every window, total, and drop count
// doubles — exactly what merging an equal copy twice into an empty store
// yields.
func TestStoreMergeSelfDoubles(t *testing.T) {
	s := mergeFixture()
	want := NewStore(time.Second, 4)
	for i := 0; i < 2; i++ {
		if err := want.Merge(mergeFixture()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Merge(s); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		for w := time.Duration(0); w < 10*time.Second; w += time.Second {
			if got, exp := s.Range(name, w, w+time.Second), want.Range(name, w, w+time.Second); got != exp {
				t.Errorf("%s window %v: self-merged %+v, want %+v", name, w, got, exp)
			}
		}
		if got, exp := s.Total(name), want.Total(name); got != exp {
			t.Errorf("%s total: self-merged %+v, want %+v", name, got, exp)
		}
		if got, exp := s.Dropped(name), want.Dropped(name); got != exp {
			t.Errorf("%s dropped: self-merged %d, want %d", name, got, exp)
		}
	}
	if got := s.Range("a", time.Second, 2*time.Second); got != (Rollup{Count: 4, Sum: 12, Max: 4}) {
		t.Errorf("a window 1 = %+v, want {4 12 4}", got)
	}
	if got := s.Total("b"); got != (Rollup{Count: 6, Sum: 30, Max: 7}) {
		t.Errorf("b total = %+v, want {6 30 7}", got)
	}
	if got := s.Dropped("b"); got != 2 {
		t.Errorf("b dropped = %d, want 2", got)
	}
}

// TestStoreMergeConcurrentNoDeadlock races a→b against b→a merges (each
// holds both store locks) alongside locked readers and writers on both
// stores. Run under -race it also checks that the folds, which read the
// source rings in place, are fully covered by the locks.
func TestStoreMergeConcurrentNoDeadlock(t *testing.T) {
	a, b := mergeFixture(), mergeFixture()
	const rounds = 25 // cross merges grow counts geometrically; stay far from overflow
	var wg sync.WaitGroup
	merge := func(dst, src *Store) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := dst.Merge(src); err != nil {
				t.Error(err)
				return
			}
		}
	}
	touch := func(st *Store) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			st.Record("c", time.Duration(i)*time.Second, 1)
			st.Range("a", 0, 10*time.Second)
			st.Names()
		}
	}
	wg.Add(4)
	go merge(a, b)
	go merge(b, a)
	go touch(a)
	go touch(b)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent a→b and b→a merges deadlocked")
	}
	if a.Total("a").Count <= mergeFixture().Total("a").Count {
		t.Error("a→b/b→a merges folded nothing")
	}
}
