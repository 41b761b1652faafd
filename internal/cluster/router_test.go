package cluster

import (
	"fmt"
	"testing"
)

// testSet builds a Set of n healthy replicas without starting the probe
// loops: router tests exercise pick logic against synthetic health/load
// state, no network.
func testSet(n int) *Set {
	s := &Set{}
	for i := 0; i < n; i++ {
		rep := &Replica{URL: fmt.Sprintf("http://replica-%d:8080", i)}
		rep.healthy.Store(true)
		s.replicas = append(s.replicas, rep)
	}
	return s
}

func TestP2CPicksLessLoaded(t *testing.T) {
	s := testSet(2)
	reps := s.replicas
	reps[0].inflight.Store(10)
	rt := newRouter(1)
	// With exactly two candidates, p2c always samples both, so the less
	// loaded replica must win every time.
	for i := 0; i < 100; i++ {
		if got := rt.pick(s, nil); got != reps[1] {
			t.Fatalf("pick %d chose loaded replica %s", i, got.URL)
		}
	}
}

func TestP2CSkipsUnhealthyAndExcluded(t *testing.T) {
	s := testSet(3)
	reps := s.replicas
	reps[0].healthy.Store(false)
	exclude := map[*Replica]bool{reps[1]: true}
	rt := newRouter(1)
	for i := 0; i < 50; i++ {
		if got := rt.pick(s, exclude); got != reps[2] {
			t.Fatalf("pick chose %v, want the only eligible replica", got)
		}
	}
	exclude[reps[2]] = true
	if got := rt.pick(s, exclude); got != nil {
		t.Fatalf("pick with no eligible replicas = %s, want nil", got.URL)
	}
}

func TestP2CSpreadsLoad(t *testing.T) {
	s := testSet(4)
	rt := newRouter(7)
	counts := map[*Replica]int{}
	for i := 0; i < 4000; i++ {
		rep := rt.pick(s, nil)
		counts[rep]++
		// Simulate in-flight load so p2c has a signal to balance on.
		rep.inflight.Add(1)
		if i%4 == 3 {
			for r := range counts {
				r.inflight.Store(0)
			}
		}
	}
	for rep, n := range counts {
		if n < 600 || n > 1400 {
			t.Fatalf("replica %s got %d/4000 picks, want roughly uniform", rep.URL, n)
		}
	}
}
