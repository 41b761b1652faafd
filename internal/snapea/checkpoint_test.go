package snapea

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	ck := NewOptCheckpoint("tinynet", 0.05)
	ck.Profiled["conv1"] = [][]Candidate{
		{{Param: KernelParam{Th: -0.5, N: 4}, Op: 10, FN: 0.01}, {Param: Exact, Op: 27}},
	}
	ck.Local["conv1"] = []LayerChoice{
		{Params: LayerParams{{Th: -0.5, N: 4}}, Op: 100, Err: 0.02},
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOptCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("round trip lost state:\nsaved  %+v\nloaded %+v", ck, got)
	}
}

func TestCheckpointLoadRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"garbage":     `{"version": 2, "epsilon"`,
		"bad version": `{"version": 99, "epsilon": 0.05}`,
		"version 1":   `{"version": 1, "epsilon": 0.05}`,
		"neg epsilon": `{"version": 2, "epsilon": -1}`,
		"huge N":      `{"version": 2, "epsilon": 0.05, "profiled": {"c": [[{"param": {"th": 0, "n": 999999999}}]]}}`,
		"overflow Th": `{"version": 2, "epsilon": 0.05, "profiled": {"c": [[{"param": {"th": 1e39, "n": 4}}]]}}`,
	}
	for name, body := range cases {
		if _, err := LoadOptCheckpoint(write(name+".json", body)); err == nil {
			t.Errorf("%s checkpoint accepted", name)
		}
	}
	if _, err := LoadOptCheckpoint(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCheckpointCompatible(t *testing.T) {
	ck := NewOptCheckpoint("alexnet", 0.03)
	if err := ck.Compatible("alexnet", 0.03); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}
	if err := ck.Compatible("vggnet", 0.03); err == nil {
		t.Fatal("network mismatch accepted")
	}
	if err := ck.Compatible("alexnet", 0.05); err == nil {
		t.Fatal("epsilon mismatch accepted")
	}
	// Unknown network on either side only checks ε.
	if err := ck.Compatible("", 0.03); err != nil {
		t.Fatalf("wildcard network rejected: %v", err)
	}
}

func TestOptimizerRejectsIncompatibleCheckpoint(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 27)
	net := CompileExact(m)
	o := NewOptimizer(net, m.Head, optImgs, optLabels, wideGrid(0.05))
	o.SetCheckpoint(NewOptCheckpoint("", 0.10), nil)
	if _, err := o.RunCtx(context.Background()); err == nil {
		t.Fatal("ε-mismatched checkpoint accepted")
	}
	ck := NewOptCheckpoint("", 0.05)
	ck.Profiled["no-such-layer"] = [][]Candidate{}
	o2 := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(0.05))
	o2.SetCheckpoint(ck, nil)
	if _, err := o2.RunCtx(context.Background()); err == nil {
		t.Fatal("checkpoint naming an absent layer accepted")
	}
}

// TestOptimizerResumeIdentical is the resumability acceptance test:
// cancel a checkpointed run after its first completed unit of work, then
// resume from the saved file and require results identical to an
// uninterrupted run.
func TestOptimizerResumeIdentical(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 26)
	const eps = 0.08
	path := filepath.Join(t.TempDir(), "opt.ckpt")

	// Reference: uninterrupted run.
	refPath := filepath.Join(t.TempDir(), "ref.ckpt")
	ref := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(eps))
	ref.SetCheckpoint(NewOptCheckpoint("tinynet", eps), func(ck *OptCheckpoint) error { return ck.Save(refPath) })
	want, err := ref.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel right after the first checkpoint save.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saves := 0
	interrupted := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(eps))
	interrupted.SetCheckpoint(NewOptCheckpoint("tinynet", eps), func(ck *OptCheckpoint) error {
		saves++
		if err := ck.Save(path); err != nil {
			return err
		}
		cancel()
		return nil
	})
	if _, err := interrupted.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if saves == 0 {
		t.Fatal("no checkpoint was saved before cancellation")
	}

	// Resume from the saved file and finish.
	ck, err := LoadOptCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Compatible("tinynet", eps); err != nil {
		t.Fatal(err)
	}
	if len(ck.Profiled) == 0 {
		t.Fatal("checkpoint holds no profiled layers")
	}
	resumed := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(eps))
	resumed.SetCheckpoint(ck, func(ck *OptCheckpoint) error { return ck.Save(path) })
	got, err := resumed.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.Params, got.Params) {
		t.Fatalf("resumed params differ from uninterrupted run:\nwant %+v\ngot  %+v", want.Params, got.Params)
	}
	if want.FinalAcc != got.FinalAcc || want.BaseAcc != got.BaseAcc {
		t.Fatalf("resumed accuracies differ: want %.4f/%.4f got %.4f/%.4f",
			want.BaseAcc, want.FinalAcc, got.BaseAcc, got.FinalAcc)
	}
	wantCk, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantCk) != string(gotCk) {
		t.Fatalf("resumed run's final checkpoint differs from the uninterrupted run's (%d vs %d bytes)", len(gotCk), len(wantCk))
	}
}

// TestOptimizerRefusesCheckpointOfOtherInputs interrupts a run after its
// first checkpoint save and resumes it with inputs that share the
// network name and ε but not the optimization: another model seed,
// another optimization set, another configuration. Each resume must be
// refused rather than blend two runs' profiles.
func TestOptimizerRefusesCheckpointOfOtherInputs(t *testing.T) {
	const eps = 0.08
	m, optImgs, optLabels, testImgs, testLabels := pipeline(t, 1)
	path := filepath.Join(t.TempDir(), "seed1.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(eps))
	o.SetCheckpoint(NewOptCheckpoint("tinynet", eps), func(ck *OptCheckpoint) error {
		cancel()
		return ck.Save(path)
	})
	if _, err := o.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	m2, optImgs2, optLabels2, _, _ := pipeline(t, 2)
	soft := wideGrid(eps)
	soft.SoftLoss = true
	for _, c := range []struct {
		name string
		opt  *Optimizer
	}{
		{"model seed 2", NewOptimizer(CompileExact(m2), m2.Head, optImgs2, optLabels2, wideGrid(eps))},
		{"other optimization set", NewOptimizer(CompileExact(m), m.Head, testImgs, testLabels, wideGrid(eps))},
		{"other configuration", NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, soft)},
	} {
		ck, err := LoadOptCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Compatible("tinynet", eps); err != nil {
			t.Fatalf("%s: (network, ε) check already differs: %v", c.name, err)
		}
		c.opt.SetCheckpoint(ck, nil)
		_, err = c.opt.RunCtx(context.Background())
		if err == nil || !strings.Contains(err.Error(), "optimizer inputs") {
			t.Fatalf("%s: resume returned %v, want an inputs mismatch", c.name, err)
		}
	}
}

func TestOptimizerCanceledBeforeStart(t *testing.T) {
	m, optImgs, optLabels, _, _ := pipeline(t, 28)
	o := NewOptimizer(CompileExact(m), m.Head, optImgs, optLabels, wideGrid(0.05))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context returned %v", err)
	}
}
