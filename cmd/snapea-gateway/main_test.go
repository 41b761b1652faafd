package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"regexp"
	"slices"
	"strings"
	"testing"

	"snapea/internal/cli"
)

// gatewayFlags is the command's own surface; the shared observability
// flags (cli.ObsFlags) ride along and are not counted.
var gatewayFlags = []string{
	"addr", "addr-file", "attempts", "drain-timeout", "probe-failures",
	"probe-interval", "probe-timeout", "replicas", "request-timeout", "timeout",
}

// clearGatewayEnv keeps SNAPEA_GATEWAY_* and observability variables
// from the test's environment out of setup.
func clearGatewayEnv(t *testing.T) {
	for _, env := range []map[string]string{cli.GatewayEnv(), cli.ObsEnv()} {
		for _, name := range env {
			t.Setenv(name, "")
		}
	}
}

func TestSetup(t *testing.T) {
	clearGatewayEnv(t)
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error; "" means success
	}{
		{"no replicas", nil, "no replicas"},
		{"blank replica list", []string{"-replicas", " , "}, "no replicas"},
		{"malformed URL", []string{"-replicas", "http://a:1,not a url"}, "want scheme://host"},
		{"duplicate URL", []string{"-replicas", "http://a:1,http://a:1/"}, "duplicate replica"},
		{"bad duration", []string{"-replicas", "http://a:1", "-probe-interval", "often"}, "invalid value"},
		{"deleted flag", []string{"-replicas", "http://a:1", "-policy", "hash"}, "not defined: -policy"},
		{"ok", []string{"-replicas", "http://a:1,http://b:2", "-attempts", "2", "-probe-interval", "1h"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, g, err := setup(tc.args, io.Discard)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("setup(%q): %v", tc.args, err)
				}
				defer g.Close()
				if len(o.cluster.Replicas) != 2 || o.cluster.Attempts != 2 {
					t.Fatalf("setup(%q) parsed %+v", tc.args, o.cluster)
				}
				return
			}
			if err == nil {
				g.Close()
				t.Fatalf("setup(%q) accepted bad input", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("setup(%q) error %q, want it to mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestHelpListsExactlyTheGatewayFlags: -h prints every flag, and apart
// from the observability group they are exactly the gateway's ten.
func TestHelpListsExactlyTheGatewayFlags(t *testing.T) {
	clearGatewayEnv(t)
	var out bytes.Buffer
	if _, _, err := setup([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("setup(-h) error = %v, want flag.ErrHelp", err)
	}
	obs := flag.NewFlagSet("obs", flag.ContinueOnError)
	cli.ObsFlags(obs)
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(out.String(), -1) {
		if obs.Lookup(m[1]) == nil {
			listed = append(listed, m[1])
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, gatewayFlags) {
		t.Fatalf("-h lists %q, want %q", listed, gatewayFlags)
	}
}

// TestGatewayEnvNamesRegisteredFlags: ApplyEnv calls fs.Set for every
// variable that is set, so an entry naming a flag the command no longer
// registers would make the gateway refuse to start.
func TestGatewayEnvNamesRegisteredFlags(t *testing.T) {
	fs := flag.NewFlagSet("snapea-gateway", flag.ContinueOnError)
	registerFlags(fs)
	for name, env := range cli.GatewayEnv() {
		if fs.Lookup(name) == nil {
			t.Errorf("%s names -%s, which snapea-gateway does not register", env, name)
		}
	}
}

// TestSetupAppliesEnv: a SNAPEA_GATEWAY_* variable fills an unset flag,
// so a fleet can be configured without a command line.
func TestSetupAppliesEnv(t *testing.T) {
	clearGatewayEnv(t)
	t.Setenv("SNAPEA_GATEWAY_REPLICAS", "http://a:1")
	t.Setenv("SNAPEA_GATEWAY_PROBE_INTERVAL", "1h")
	o, g, err := setup(nil, io.Discard)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	defer g.Close()
	if !slices.Equal(o.cluster.Replicas, []string{"http://a:1"}) {
		t.Fatalf("replicas = %q, want the environment's", o.cluster.Replicas)
	}
}
