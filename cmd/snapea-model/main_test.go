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
// edited file.
func TestParamsChecksumLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tinynet-params.json")
	edited := filepath.Join(dir, "tinynet-params-edited.json")
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
