package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snapea/internal/experiments"
)

// cancelOnFile is a context that reports itself cancelled once path
// exists, so a run under it stops at its first context check after its
// first checkpoint save, whatever the timing.
type cancelOnFile struct {
	context.Context
	path string
}

func (c cancelOnFile) Err() error {
	if _, err := os.Stat(c.path); err == nil {
		return context.Canceled
	}
	return nil
}

// interrupt runs snapea-tune with args under cancelOnFile on its
// checkpoint and requires the interrupted exit with a checkpoint left.
func interrupt(t *testing.T, args ...string) {
	t.Helper()
	var stderr bytes.Buffer
	o, err := parse(args, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cancelOnFile{Context: context.Background(), path: o.ckptPath}
	if code := tune(ctx, o, &bytes.Buffer{}, &stderr); code != 3 {
		t.Fatalf("interrupted run exit %d, want 3\n%s", code, stderr.String())
	}
	if _, err := os.Stat(o.ckptPath); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
}

// runOK runs snapea-tune with args, requires exit 0 and returns what it
// wrote to its stderr.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	if code := run(args, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("snapea-tune %v: exit %d\n%s", args, code, stderr.String())
	}
	return stderr.String()
}

// TestTuneWritesSuiteParams pins snapea-tune to the experiment suite:
// the params file is byte-identical to the suite's predictive run for
// the same (network, seed, ε, optimization-set size), whether the run
// goes through uninterrupted or is interrupted after its first
// checkpoint and resumed. The uninterrupted run is verbose: -v changes
// no byte of the params, and the suite's progress lines land on the
// stderr writer run was handed.
func TestTuneWritesSuiteParams(t *testing.T) {
	const seed, eps, optImages = 3, 0.05, 6
	want, err := experiments.New(experiments.Config{Networks: []string{"tinynet"}, Seed: seed, OptImages: optImages}).
		Predictive("tinynet", eps).Opt.File("tinynet", eps).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	args := func(out string, extra ...string) []string {
		return append([]string{"-net", "tinynet", "-seed", "3", "-eps", "0.05", "-opt-images", "6",
			"-o", filepath.Join(dir, out)}, extra...)
	}
	if log := runOK(t, args("whole.json", "-v")...); !strings.Contains(log, "[tinynet] ") {
		t.Fatalf("snapea-tune -v wrote no [tinynet] progress line to run's stderr:\n%s", log)
	}
	interrupt(t, args("resumed.json")...)
	runOK(t, args("resumed.json", "-resume")...)

	for _, name := range []string{"whole.json", "resumed.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the suite's params:\n got %s\nwant %s", name, got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "resumed.json.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("finished run left its checkpoint behind: %v", err)
	}
}

// TestResumeRefusesAnotherRunsCheckpoint interrupts a run and resumes
// its checkpoint under another -seed and another -opt-images: same
// network and ε, different optimizer inputs. Both resumes must be
// refused with exit 2 rather than blend two runs' profiles.
func TestResumeRefusesAnotherRunsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "tune.ckpt")
	base := []string{"-net", "tinynet", "-eps", "0.05", "-checkpoint", ckpt, "-o", filepath.Join(dir, "p.json")}
	interrupt(t, append(base, "-seed", "1", "-opt-images", "6")...)
	for _, other := range [][]string{
		{"-seed", "2", "-opt-images", "6"},
		{"-seed", "1", "-opt-images", "5"},
	} {
		var stderr bytes.Buffer
		args := append(append(append([]string(nil), base...), other...), "-resume")
		if code := run(args, &bytes.Buffer{}, &stderr); code != 2 {
			t.Fatalf("resume with %v: exit %d, want 2\n%s", other, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "optimizer inputs") {
			t.Fatalf("resume with %v: error does not name the inputs mismatch:\n%s", other, stderr.String())
		}
	}
}

// TestBadFlagsExitBeforeWork: each invalid flag value exits 2 with a
// usage message, without building, calibrating or tuning anything.
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-opt-images", "-1"},
		{"-opt-images", "0"},
		{"-eps", "NaN"},
		{"-eps", "+Inf"},
		{"-eps", "-0.01"},
		{"-net", "nosuchnet"},
	} {
		var stdout, stderr bytes.Buffer
		args := append(args, "-o", filepath.Join(t.TempDir(), "p.json"))
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2\n%s", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "Usage of snapea-tune") {
			t.Fatalf("%v: no usage message:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: wrote to stdout: %s", args, stdout.String())
		}
	}
}
