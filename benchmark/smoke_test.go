package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestQuickSmoke runs all five workloads through both passes at -quick
// sizes for about a second each. It checks structure only — every
// declared metric present, end-to-end metrics non-zero, every output
// check passing — never a timing.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up pipeline")
	}
	scratchDir = t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.Name + "/timed"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				r, tf, err := run(context.Background(), options{Workload: w, Seed: 2, Seconds: 1, Traced: traced, Quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d, problems %v", r.Attempted, r.Failed, r.Problems)
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				if len(r.Metrics) != len(list) {
					t.Errorf("%d metrics reported, %d declared for this pass", len(r.Metrics), len(list))
				}
				for _, m := range list {
					v, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("%s not reported", m.Name)
					}
					// Algorithm 1 on the two-image quick split can leave a
					// network that agrees with dense on none of six images.
					if !traced && v.Value <= 0 && m.Name != "top1_agree" {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil || len(line.Metrics) != len(list) {
					t.Errorf("driver line does not parse back: %v", err)
				}
				if traced {
					if len(tf.Spans) == 0 || len(tf.Nodes) == 0 {
						t.Errorf("traced pass kept %d spans and %d node rows", len(tf.Spans), len(tf.Nodes))
					}
					if r.Metrics["snapea.conv_ms_per_img"].Value <= 0 || r.Metrics["snapea.macs_dense"].Value <= 0 {
						t.Error("traced pass has no per-node convolution time or MAC count")
					}
				}
			})
		}
	}
}

// TestSeedSelectsInputsOnly: the same seed gives the same outputs, a
// second seed gives different inputs and still runs clean.
func TestSeedSelectsInputsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a set-up pipeline three times")
	}
	scratchDir = t.TempDir()
	w := findWorkload("tinynet-gateway-closed")
	digest := func(seed uint64) string {
		r, _, err := run(context.Background(), options{Workload: w, Seed: seed, Seconds: 0.3, Quick: true})
		if err != nil || !r.Correct {
			t.Fatalf("seed %d: err %v, result %+v", seed, err, r)
		}
		return r.Digest
	}
	if a, b := digest(5), digest(5); a != b {
		t.Errorf("seed 5 twice: digests %s and %s", a, b)
	}
	if a, b := digest(5), digest(6); a == b {
		t.Errorf("seeds 5 and 6 produced the same outputs (%s)", a)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, declared any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec, &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, declared) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run ./benchmark -print-spec > BENCHMARK.json`")
	}
}

// TestSpecWithinContract holds the declarations to the limits the
// benchmark driver enforces before it runs anything.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || len(w.Why) == 0 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the contract", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
