package main

import (
	"bytes"
	"strings"
	"testing"

	"snapea/internal/parallel"
)

// TestStdoutIndependentOfWorkers runs Figure 9 on two small networks at
// one and two workers. Fig9 prepares and tunes the networks
// concurrently, so any progress line written to stdout lands in
// schedule order; the tables alone are deterministic, and stdout must
// carry nothing else: no "[net] ..." progress line, and the same bytes
// at both worker counts. (At these sizes the two networks rarely
// overlap, so the byte comparison alone would seldom see a stray line.)
// The progress lines go to the stderr writer run was handed.
func TestStdoutIndependentOfWorkers(t *testing.T) {
	defer parallel.SetLimit(0)
	var outs []string
	for _, workers := range []string{"1", "2"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "fig9", "-nets", "tinynet,lenet", "-workers", workers,
			"-test-images", "4", "-opt-images", "4", "-train-images", "8"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d\n%s", workers, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "Figure 9") {
			t.Fatalf("workers=%s: no Figure 9 table on stdout:\n%s", workers, stdout.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "[") {
				t.Fatalf("workers=%s: progress line on stdout: %q", workers, line)
			}
		}
		if !strings.Contains(stderr.String(), "[tinynet] ") {
			t.Fatalf("workers=%s: no [tinynet] progress line on run's stderr:\n%s", workers, stderr.String())
		}
		outs = append(outs, stdout.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("stdout differs between 1 and 2 workers:\n--- 1 worker\n%s--- 2 workers\n%s", outs[0], outs[1])
	}
}

// TestDeletedFlagsAreRefused: the batch checkpoint flags and the
// serve-path fault flags are gone; each exits 2 before any work and
// names itself.
func TestDeletedFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint", "bench.ckpt"},
		{"-resume"},
		{"-fault-serve-delay", "1s"},
		{"-fault-serve-delay-rate", "0.5"},
		{"-fault-serve-panic", "0.5"},
		{"-fault-serve-err", "0.1"},
		{"-fault-serve-limit", "1"},
		{"-fault-serve-target", "tinynet"},
	} {
		t.Run(args[0], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(args, "-exp", "fig9", "-nets", "tinynet"), &stdout, &stderr); code != 2 {
				t.Fatalf("%v: exit %d, want 2\n%s", args, code, stderr.String())
			}
			if want := "flag provided but not defined: " + args[0]; !strings.Contains(stderr.String(), want) {
				t.Fatalf("%v: stderr does not say %q:\n%s", args, want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("%v: wrote to stdout: %s", args, stdout.String())
			}
		})
	}
}

// TestBadFlagsExitBeforeWork: an unknown network or scale exits 2 with
// the reason and the usage on stderr, before any network is built.
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-nets", "nosuchnet"}, `unknown network "nosuchnet"`},
		{[]string{"-nets", "tinynet,nosuchnet"}, `unknown network "nosuchnet"`},
		{[]string{"-nets", "tinynet,"}, `unknown network ""`},
		{[]string{"-scale", "bogus"}, `invalid value "bogus" for flag -scale: want reduced or full`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-exp", "fig9"), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\n%s", code, stderr.String())
			}
			for _, want := range []string{tc.want, "Usage of snapea-bench"} {
				if !strings.Contains(stderr.String(), want) {
					t.Fatalf("stderr does not say %q:\n%s", want, stderr.String())
				}
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote to stdout: %s", stdout.String())
			}
		})
	}
}
