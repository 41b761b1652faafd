package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagsExitBeforeWork: -h and every refused command line exit
// before any model is built, with the reason on stderr and nothing on
// stdout.
func TestFlagsExitBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // substring of stderr
	}{
		{[]string{"-h"}, 0, "Usage of snapea-trace"},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined: -nosuchflag"},
		{[]string{"-net", "nosuchnet"}, 2, `unknown network "nosuchnet"`},
		{[]string{"-fault-weight-bitflip", "2"}, 2, "weight-bit-flip rate 2"},
		{[]string{"-hist", "-buckets", "0"}, 2, "-buckets 0: want at least one bucket"},
		{[]string{"-hist", "-buckets", "-3"}, 2, "-buckets -3: want at least one bucket"},
		{[]string{"-fault-serve-err", "0.5"}, 2, "flag provided but not defined: -fault-serve-err"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr does not say %q:\n%s", tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote to stdout: %s", stdout.String())
			}
		})
	}
}
