package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParamsChecksumLifecycle walks a tinynet params file through
// -verify and -checksum in order: a legacy file fails -verify, -checksum
// blesses it and -verify then passes, a value edited after blessing
// fails -verify with a MISMATCH line, and -checksum refuses to bless the
// edited file. A file that is not params JSON (here a binary weights
// dump) is refused by both.
func TestParamsChecksumLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tinynet-params.json")
	edited := filepath.Join(dir, "tinynet-params-edited.json")
	dump := filepath.Join(dir, "tinynet.weights.bin")
	if err := os.WriteFile(dump, []byte("\x00\x01\x02\x03tinynet\xff"), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := `{"network": "tinynet", "epsilon": 0.03, "base_accuracy": 0, "final_accuracy": 0,
"predictive_layers": ["conv1"], "layers": {"conv1": [` +
		strings.TrimSuffix(strings.Repeat(`{"Th": 0.25, "N": 1}, `, 8), ", ") + `]}}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	// edit copies the blessed file with one threshold changed behind its
	// checksums block.
	edit := func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := strings.Replace(string(data), "0.25", "0.26", 1)
		if bad == string(data) {
			t.Fatalf("no threshold to edit in %s", data)
		}
		if err := os.WriteFile(edited, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		name   string
		before func(*testing.T)
		run    func(string, io.Writer) int
		path   string
		exit   int
		out    string // a substring the report must contain
	}{
		{"legacy fails -verify", nil, runVerify, path, 1, "legacy artifact"},
		{"-checksum blesses it", nil, runChecksum, path, 0, "wrote checksums block"},
		{"blessed passes -verify", nil, runVerify, path, 0, "1 layers verified"},
		{"edited value fails -verify", edit, runVerify, edited, 1, "MISMATCH"},
		{"-checksum refuses the edited file", nil, runChecksum, edited, 2, ""},
		{"non-JSON fails -verify", nil, runVerify, dump, 2, ""},
		{"-checksum refuses non-JSON", nil, runChecksum, dump, 2, ""},
	} {
		if step.before != nil {
			step.before(t)
		}
		var out bytes.Buffer
		if got := step.run(step.path, &out); got != step.exit {
			t.Fatalf("%s: exit %d, want %d\n%s", step.name, got, step.exit, out.String())
		}
		if !strings.Contains(out.String(), step.out) {
			t.Fatalf("%s: report lacks %q:\n%s", step.name, step.out, out.String())
		}
	}
}

// TestFlags: -h and refused command lines exit before any model is
// built, with the reason on stderr and nothing on stdout; a good one
// prints the layer table.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		code      int
		stdout    string // a substring of stdout; "" means stdout stays empty
		stderrHas string
	}{
		{[]string{"-h"}, 0, "", "Usage of snapea-model"},
		{[]string{"-nosuchflag"}, 2, "", "flag provided but not defined: -nosuchflag"},
		{[]string{"-scale", "bogus"}, 2, "", `invalid value "bogus" for flag -scale: want reduced or full`},
		{[]string{"-net", "nosuchnet"}, 2, "", "nosuchnet"},
		{[]string{"-net", "lenet", "-scale", "reduced"}, 0, "2 conv layers, 2 FC layers", ""},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Fatalf("stderr does not say %q:\n%s", tc.stderrHas, stderr.String())
			}
			if tc.stdout == "" && stdout.Len() != 0 || !strings.Contains(stdout.String(), tc.stdout) {
				t.Fatalf("stdout %q, want it to say %q", stdout.String(), tc.stdout)
			}
		})
	}
}
