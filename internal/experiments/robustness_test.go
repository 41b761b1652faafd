package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestFaultSweepShapeAndCleanBaseline(t *testing.T) {
	s := testSuite(t)
	res := s.FaultSweep()
	wantPoints := len(s.Cfg.Networks) * len(res.Scales) * len(res.Modes)
	if len(res.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(res.Points), wantPoints)
	}
	for _, p := range res.Points {
		if p.Acc < 0 || p.Acc > 1 {
			t.Errorf("%s/%s@%g: accuracy %g out of range", p.Network, p.Mode, p.Scale, p.Acc)
		}
		if p.Scale == 0 {
			if p.Faults.Total() != 0 {
				t.Errorf("%s/%s@0: injected %d faults at zero intensity", p.Network, p.Mode, p.Faults.Total())
			}
			if p.AccDrop != 0 && p.Mode == "dense" {
				t.Errorf("%s dense@0: accuracy drop %g on a clean run", p.Network, p.AccDrop)
			}
		} else if p.Scale >= 100 && p.Faults.Total() == 0 {
			// Low scales on toy models can legitimately round to zero
			// faults; the top intensity must materialize some.
			t.Errorf("%s/%s@%g: no faults materialized", p.Network, p.Mode, p.Scale)
		}
		if p.Mode == "dense" && p.MACRed != 0 {
			t.Errorf("%s dense@%g: nonzero MAC reduction %g", p.Network, p.Scale, p.MACRed)
		}
	}
	// The exact engine must actually skip MACs in its clean configuration.
	for _, name := range s.Cfg.Networks {
		if p := res.point(name, 0, "exact"); p == nil || p.MACRed <= 0 {
			t.Errorf("%s exact@0: MAC reduction missing (%+v)", name, p)
		}
	}
}

// TestFaultSweepDeterministic is the reproducibility acceptance test:
// two fresh suites with the same seed must produce bit-identical sweeps.
func TestFaultSweepDeterministic(t *testing.T) {
	run := func() FaultSweepResult {
		return testSuite(t).FaultSweep()
	}
	a, b := run(), run()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("sweep not deterministic at point %d:\n%+v\n%+v", i, a.Points[i], b.Points[i])
		}
	}
}

// TestConcurrentExperiments is the race regression test (run under
// -race): two experiments sharing cached stages and one output writer
// must be safe to run concurrently.
func TestConcurrentExperiments(t *testing.T) {
	var sb strings.Builder
	s := testSuite(t)
	s.Cfg.Out = &lockedWriter{w: &sb}
	var wg sync.WaitGroup
	runs := []func(){
		func() { s.Fig8() },
		func() { s.Fig9() },
		func() { s.Fig2() },
	}
	wg.Add(len(runs))
	for _, fn := range runs {
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
	if !strings.Contains(sb.String(), "Figure") {
		t.Fatal("no tables rendered")
	}
	// Same-key stages must have been computed once and shared.
	if s.Exact("tinynet") != s.Exact("tinynet") {
		t.Fatal("exact stage not cached")
	}
}

func TestSafeRecoversPanics(t *testing.T) {
	s := testSuite(t)
	err := s.Safe("boom", func() { panic("kaput") })
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	fails := s.Failures()
	if len(fails) != 1 || fails[0].Name != "boom" {
		t.Fatalf("failures %+v", fails)
	}
	if err := s.Safe("fine", func() {}); err != nil {
		t.Fatalf("clean experiment reported %v", err)
	}
	if len(s.Failures()) != 1 {
		t.Fatal("clean experiment recorded a failure")
	}
}

func TestSuiteContextCancelAndRetry(t *testing.T) {
	s := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Cfg.Ctx = ctx
	if _, err := s.PreparedErr("tinynet"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled prepare returned %v", err)
	}
	// The poisoned cache entry must be dropped so a fresh context works.
	s.Cfg.Ctx = context.Background()
	p, err := s.PreparedErr("tinynet")
	if err != nil || p == nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

func TestSuiteUnknownNetworkIsError(t *testing.T) {
	s := testSuite(t)
	if _, err := s.PreparedErr("no-such-net"); err == nil {
		t.Fatal("unknown network accepted")
	}
	// The panicking accessor is recoverable through Safe.
	if err := s.Safe("bad-net", func() { s.Prepared("no-such-net") }); err == nil {
		t.Fatal("Safe did not surface the panic")
	}
}

// TestRunListCheckpointsAndSkips: a panicking experiment is recorded as
// a failure and the rest still run; once the context is cancelled the
// remaining experiments are skipped.
func TestRunListCheckpointsAndSkips(t *testing.T) {
	s := testSuite(t)
	var ran []string
	list := []NamedExperiment{
		{"one", func() { ran = append(ran, "one") }},
		{"two", func() { ran = append(ran, "two") }},
		{"bad", func() { panic("nope") }},
		{"three", func() { ran = append(ran, "three") }},
	}
	fails := s.RunList(list)
	if len(fails) != 1 || fails[0].Name != "bad" {
		t.Fatalf("failures %+v", fails)
	}
	if want := []string{"one", "two", "three"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}

	ran = nil
	s2 := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s2.Cfg.Ctx = ctx
	list[1].Run = func() { ran = append(ran, "two"); cancel() }
	if fails := s2.RunList(list); len(fails) != 0 {
		t.Fatalf("failures after cancel %+v", fails)
	}
	if want := []string{"one", "two"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v after cancel, want %v", ran, want)
	}
}
