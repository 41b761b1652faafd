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

// costSides are a ForCost loop just under the inline threshold and one
// just over it: the same 64 items, a step apart in price.
var costSides = []struct {
	name   string
	steps  int
	inline bool
}{
	{"inline", InlineSteps/64 - 1, true},
	{"fanned", InlineSteps/64 + 1, false},
}

func TestForCostVisitsEveryIndexOnce(t *testing.T) {
	withLimit(t, 4)
	for _, side := range costSides {
		var hits [64]atomic.Int32
		ForCost(len(hits), side.steps, &hits, func(hits *[64]atomic.Int32, _, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("%s: index %d visited %d times, want 1", side.name, i, got)
			}
		}
	}
}

func TestForCostDegenerateDims(t *testing.T) {
	calls := 0
	count := func(calls *int, _, _ int) { *calls++ }
	ForCost(0, 5, &calls, count)
	ForCost(-1, InlineSteps, &calls, count)
	ForCost(-InlineSteps, -3, &calls, count)
	if calls != 0 {
		t.Fatalf("degenerate dims ran %d units, want 0", calls)
	}
}

func TestForCostWorkerIDsStayBelowWorkersCost(t *testing.T) {
	withLimit(t, 4)
	for _, side := range costSides {
		bound := WorkersCost(64, side.steps)
		if (bound == 1) != side.inline || (!side.inline && bound != 4) {
			t.Fatalf("%s: WorkersCost = %d at limit 4", side.name, bound)
		}
		var bad atomic.Int32
		ForCost(64, side.steps, bound, func(bound, w, _ int) {
			if w < 0 || w >= bound {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("%s: %d units saw a worker index outside [0,%d)", side.name, bad.Load(), bound)
		}
	}
}

// TestForCostInlineRunsOnCallerInOrder pins what the inline side
// promises beyond For: index order, on the calling goroutine — so no
// synchronisation is needed to observe it — with no helper ever started.
func TestForCostInlineRunsOnCallerInOrder(t *testing.T) {
	withLimit(t, 4)
	var order []int
	ForCost(64, InlineSteps/64-1, &order, func(order *[]int, w, i int) {
		if w != 0 {
			t.Errorf("item %d ran as worker %d", i, w)
		}
		*order = append(*order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d ran item %d", i, got)
		}
	}
	if len(order) != 64 {
		t.Fatalf("ran %d items, want 64", len(order))
	}
}

// costOperands stands in for a layer's operands: wider than the 128
// bytes up to which a closure captures a variable by value.
type costOperands struct {
	in, out []float32
	shape   [12]int
}

func (o costOperands) item(_, i int) { o.out[i] = o.in[i] }

// TestForCostAllocations holds the two paths to their allocation
// budgets: an inline loop none at all, a fan-out one job, the operands'
// copy with the closure over it, and one go-statement closure per helper.
func TestForCostAllocations(t *testing.T) {
	withLimit(t, 2)
	o := costOperands{in: make([]float32, 64), out: make([]float32, 64)}
	for _, side := range costSides {
		want := 4.0
		if side.inline {
			want = 0
		}
		got := testing.AllocsPerRun(200, func() { ForCost(64, side.steps, o, costOperands.item) })
		if got > want {
			t.Errorf("%s: %v allocations per call, want at most %v", side.name, got, want)
		}
	}
}
