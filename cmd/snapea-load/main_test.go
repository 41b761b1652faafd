package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagsExitBeforeWork: -h and every refused command line exit
// before any model is built or request sent, with the reason on stderr
// and nothing on stdout. A run that got past parsing would find no
// server: port 0 refuses every connection, and -wait-ready 0 skips the
// readiness poll.
func TestFlagsExitBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // substring of stderr
	}{
		{[]string{"-h"}, 0, "Usage of snapea-load"},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined: -nosuchflag"},
		{[]string{"-model", "nosuchnet"}, 2, `unknown -model "nosuchnet"`},
		{[]string{"-n", "0"}, 2, "-n 0: want at least one request"},
		{[]string{"-n", "-5"}, 2, "-n -5: want at least one request"},
		{[]string{"-scale", "bogus"}, 2, `invalid value "bogus" for flag -scale: want reduced or full`},
		{[]string{"-allow", "200,ok"}, 2, `bad -allow entry "ok"`},
		{[]string{"-body", "xml"}, 2, `unknown -body "xml"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(tc.args, "-wait-ready", "0", "-url", "http://127.0.0.1:0")
			if code := run(args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s", code, tc.code, stderr.String())
			}
			for _, want := range []string{tc.want, "Usage of snapea-load"} {
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
