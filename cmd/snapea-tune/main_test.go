package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snapea/internal/experiments"
)

// cancelOn is a stderr writer that cancels its context at the first
// write containing mark, so a -v run stops right after the progress
// line it names, whatever the timing. An empty mark matches any write.
type cancelOn struct {
	bytes.Buffer
	mark   string
	cancel context.CancelFunc
}

func (w *cancelOn) Write(p []byte) (int, error) {
	if strings.Contains(string(p), w.mark) {
		w.cancel()
	}
	return w.Buffer.Write(p)
}

// runOK runs snapea-tune with args, requires exit 0 and returns what it
// wrote to its stdout and stderr.
func runOK(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("snapea-tune %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestTuneWritesSuiteParams pins snapea-tune to the experiment suite:
// the params file is byte-identical to the suite's predictive run for
// the same (network, seed, ε, optimization-set size), whether written
// to -o or to stdout. The -o run is verbose: -v changes no byte of the
// params, and the suite's progress lines land on the stderr writer run
// was handed.
func TestTuneWritesSuiteParams(t *testing.T) {
	const seed, eps, optImages = 3, 0.05, 6
	want, err := experiments.New(experiments.Config{Networks: []string{"tinynet"}, Seed: seed, OptImages: optImages}).
		Predictive("tinynet", eps).Opt.File("tinynet", eps).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "params.json")
	args := []string{"-net", "tinynet", "-seed", "3", "-eps", "0.05", "-opt-images", "6"}
	if _, log := runOK(t, append(args, "-o", path, "-v")...); !strings.Contains(log, "[tinynet] ") {
		t.Fatalf("snapea-tune -v wrote no [tinynet] progress line to run's stderr:\n%s", log)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-o file differs from the suite's params:\n got %s\nwant %s", got, want)
	}
	if out, _ := runOK(t, args...); out != string(want)+"\n" {
		t.Fatalf("stdout differs from the suite's params:\n got %s\nwant %s", out, want)
	}
}

// TestTuneInterruptedWritesNothing cancels tune's context before it
// starts and in the middle of Algorithm 1 (after its first profiled
// layer): each run exits 3 and leaves no -o file behind.
func TestTuneInterruptedWritesNothing(t *testing.T) {
	for _, mark := range []string{"", "optimizer: profiled "} {
		out := filepath.Join(t.TempDir(), "params.json")
		o, err := parse([]string{"-net", "tinynet", "-eps", "0.05", "-v", "-o", out}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if mark == "" {
			cancel()
		}
		stderr := &cancelOn{mark: mark, cancel: cancel}
		code := tune(ctx, o, &bytes.Buffer{}, stderr)
		cancel()
		if code != 3 {
			t.Fatalf("cancel at %q: exit %d, want 3\n%s", mark, code, stderr.String())
		}
		if mark != "" && !strings.Contains(stderr.String(), mark) {
			t.Fatalf("cancel at %q: the run never got there\n%s", mark, stderr.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("cancel at %q: interrupted run left %s: %v", mark, out, err)
		}
	}
}

// TestBadFlagsExitBeforeWork: each invalid flag value, and the deleted
// -checkpoint, exits 2 with a usage message, without building,
// calibrating or tuning anything.
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-opt-images", "-1"},
		{"-opt-images", "0"},
		{"-eps", "NaN"},
		{"-eps", "+Inf"},
		{"-eps", "-0.01"},
		{"-net", "nosuchnet"},
		{"-checkpoint", "tune.ckpt"},
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
