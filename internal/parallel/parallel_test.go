package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func withLimit(t *testing.T, n int) {
	t.Helper()
	SetLimit(n)
	t.Cleanup(func() { SetLimit(0) })
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		withLimit(t, workers)
		const n = 1000
		var hits [n]atomic.Int32
		For(n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForWorkerIDsStayBelowWorkers(t *testing.T) {
	withLimit(t, 4)
	bound := Workers(100)
	var bad atomic.Int32
	For(100, func(w, _ int) {
		if w < 0 || w >= bound {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d units saw a worker id outside [0,%d)", bad.Load(), bound)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, func(_, _ int) { called = true })
	For(-3, func(_, _ int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForCtxCancellationSkipsRemainingUnits(t *testing.T) {
	withLimit(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	err := ForCtx(ctx, 10000, func(_, i int) {
		if i == 3 {
			cancel()
		}
		done.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := done.Load(); got == 10000 {
		t.Fatal("cancellation did not skip any units")
	}
}

func TestForCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := ForCtx(ctx, 5, func(_, _ int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("fn ran under a dead context")
	}
}

func TestForPropagatesPanic(t *testing.T) {
	withLimit(t, 4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The pool must not leak helper-budget tokens on panic.
		if got := inflight.Load(); got != 0 {
			t.Fatalf("inflight = %d after panic", got)
		}
	}()
	For(100, func(_, i int) {
		if i == 10 {
			panic("boom")
		}
	})
}

func TestNestedForStaysWithinBudget(t *testing.T) {
	withLimit(t, 3)
	var peak, cur atomic.Int64
	For(8, func(_, _ int) {
		For(8, func(_, _ int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
		})
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds limit 3", p)
	}
	if got := inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after nested loops", got)
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	withLimit(t, 7)
	out := Map(100, func(_, i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestLimitDefaultsAndOverride(t *testing.T) {
	SetLimit(0)
	if Limit() < 1 {
		t.Fatalf("default limit %d", Limit())
	}
	withLimit(t, 5)
	if Limit() != 5 {
		t.Fatalf("Limit() = %d, want 5", Limit())
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
	if w := Workers(50); w != 5 {
		t.Fatalf("Workers(50) = %d", w)
	}
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
}

func TestFor2VisitsEveryPairOnce(t *testing.T) {
	const outer, inner = 7, 11
	var counts [outer][inner]int32
	For2(outer, inner, func(_, i, j int) {
		atomic.AddInt32(&counts[i][j], 1)
	})
	for i := range counts {
		for j := range counts[i] {
			if counts[i][j] != 1 {
				t.Fatalf("pair (%d,%d) visited %d times, want 1", i, j, counts[i][j])
			}
		}
	}
}

func TestFor2DegenerateDims(t *testing.T) {
	calls := 0
	For2(0, 5, func(_, _, _ int) { calls++ })
	For2(5, 0, func(_, _, _ int) { calls++ })
	For2(-1, 3, func(_, _, _ int) { calls++ })
	if calls != 0 {
		t.Fatalf("degenerate dims ran %d units, want 0", calls)
	}
}

func TestFor2WorkerIDsStayBelowWorkers(t *testing.T) {
	const outer, inner = 4, 9
	limit := Workers(outer * inner)
	var bad atomic.Int32
	For2(outer, inner, func(w, _, _ int) {
		if w < 0 || w >= limit {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d units saw worker index outside [0,%d)", bad.Load(), limit)
	}
}
