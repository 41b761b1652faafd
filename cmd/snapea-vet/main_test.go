package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the command's surface: the analyzer list, and the usage
// errors that exit 2 before any package is loaded.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		stdout     string // the first word of every stdout line, exactly
		stderrPart string
	}{
		{"list", []string{"-list"}, 0, "detorder nowallclock atomicwrite metricdomain", ""},
		{"unknown analyzer", []string{"-root", "../..", "-run", "poolbalance", "./..."}, 2, "", `unknown analyzer "poolbalance"`},
		{"package pattern", []string{"-root", "../..", "./internal/..."}, 2, "", `unsupported package pattern "./internal/..."`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("snapea-vet %v: exit %d, want %d\nstderr: %s", c.args, code, c.code, stderr.String())
			}
			var names []string
			for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
				if f := strings.Fields(line); len(f) > 0 {
					names = append(names, f[0])
				}
			}
			if got := strings.Join(names, " "); got != c.stdout {
				t.Errorf("stdout names %q, want %q", got, c.stdout)
			}
			if !strings.Contains(stderr.String(), c.stderrPart) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.stderrPart)
			}
		})
	}
}
