package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"snapea/internal/cli"
	"snapea/internal/serve"
	"snapea/internal/snapea"
)

// serveFlags is the command's own surface; the shared fault, workers
// and observability groups ride along and are not counted.
var serveFlags = []string{
	"addr", "addr-file", "audit-every", "breaker-failures", "canary-every", "classes",
	"drain-timeout", "mispredict-budget", "models", "negorder", "params", "queue",
	"request-timeout", "require-checksums", "scale", "scrub-interval", "seed", "timeout",
}

// deletedFlags are refused. The first six became constants of
// internal/serve; the -fault-serve-* injectors are set on faults.Config
// directly by the serving chaos tests.
var deletedFlags = []string{
	"breaker-open", "breaker-probes", "guard-window", "guard-cooldown", "scrub-mbps", "heal-backoff",
	"fault-serve-delay", "fault-serve-delay-rate", "fault-serve-panic", "fault-serve-err",
	"fault-serve-limit", "fault-serve-target",
}

func TestSetup(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error; "" means success
	}{
		{"malformed params pair", []string{"-params", "tinynet"}, "malformed -params entry"},
		{"unknown negorder", []string{"-negorder", "sorted"}, "unknown -negorder"},
		{"bad fault rate", []string{"-fault-weight-bitflip", "2"}, "weight-bit-flip rate 2"},
		{"bogus scale", []string{"-scale", "bogus"}, `invalid value "bogus" for flag -scale: want reduced or full`},
		{"ok", []string{"-models", "tinynet, lenet", "-params", "tinynet=a.json", "-negorder", "original", "-queue", "8"}, ""},
	}
	for _, name := range deletedFlags {
		cases = append(cases, struct {
			name string
			args []string
			want string
		}{"deleted -" + name, []string{"-" + name, "1"}, "flag provided but not defined: -" + name})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := setup(tc.args, io.Discard)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("setup(%q): %v", tc.args, err)
				}
				c := o.serve
				if !slices.Equal(c.Models, []string{"tinynet", "lenet"}) || c.ParamsFiles["tinynet"] != "a.json" ||
					c.NegOrder != snapea.NegOriginal || c.QueueDepth != 8 {
					t.Fatalf("setup(%q) parsed %+v", tc.args, c)
				}
				return
			}
			if err == nil {
				t.Fatalf("setup(%q) accepted bad input", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("setup(%q) error %q, want it to mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// helpFlags returns every flag setup's -h lists.
func helpFlags(t *testing.T) []string {
	t.Helper()
	var out bytes.Buffer
	if _, err := setup([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("setup(-h) error = %v, want flag.ErrHelp", err)
	}
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(out.String(), -1) {
		listed = append(listed, m[1])
	}
	return listed
}

// TestHelpListsExactlyTheServeFlags: -h prints every flag, and apart
// from the shared groups they are exactly the server's eighteen.
func TestHelpListsExactlyTheServeFlags(t *testing.T) {
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	cli.FaultFlags(shared)
	cli.WorkersFlag(shared)
	cli.ObsFlags(shared)
	var own []string
	for _, name := range helpFlags(t) {
		if shared.Lookup(name) == nil {
			own = append(own, name)
		}
	}
	if !slices.Equal(own, serveFlags) {
		t.Fatalf("-h lists %q, want %q", own, serveFlags)
	}
}

// legacyParams is a tinynet params file without a checksums block: one
// predictive layer, conv1, whose eight kernels speculate at Th 0.25.
var legacyParams = `{"network": "tinynet", "epsilon": 0.03, "base_accuracy": 0, "final_accuracy": 0,
"predictive_layers": ["conv1"], "layers": {"conv1": [` +
	strings.TrimSuffix(strings.Repeat(`{"Th": 0.25, "N": 1}, `, 8), ", ") + `]}}`

// TestRequireChecksumsRefusesLegacyParamsAtPreload: with
// -require-checksums a params file without a checksums block fails the
// preload, which is what stops the server; once blessed it preloads.
func TestRequireChecksumsRefusesLegacyParamsAtPreload(t *testing.T) {
	legacy := []byte(legacyParams)
	path := filepath.Join(t.TempDir(), "tinynet-params.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-models", "tinynet", "-params", "tinynet=" + path, "-require-checksums",
		"-scrub-interval", "-1s", "-canary-every", "-1s"}
	preload := func() error {
		o, err := setup(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(o.serve)
		defer s.Close()
		return s.Preload(context.Background())
	}
	if err := preload(); err == nil {
		t.Fatal("legacy params preloaded with -require-checksums")
	}

	f, err := snapea.ParseParams(legacy)
	if err != nil {
		t.Fatal(err)
	}
	blessed, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blessed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := preload(); err != nil {
		t.Fatalf("blessed params refused: %v", err)
	}
}
