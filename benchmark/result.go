package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"snapea/internal/atomicfile"
	"snapea/internal/parallel"
)

// value is one reported metric. N is the number of samples behind a
// timing (0 for counts and ratios of counts).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// envStamp records the machine and build a result was measured on.
type envStamp struct {
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	ParallelLimit int    `json:"parallel_limit"`
}

func stampEnv() envStamp {
	env := envStamp{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      "unknown",
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
		ParallelLimit: parallel.Limit(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runResult is one run of one workload in one pass.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Env       envStamp         `json:"env"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Digest is a CRC32C over the measured network's outputs on the
	// count images; equal seeds must give equal digests on any machine.
	Digest string `json:"output_digest"`
}

// set records a metric; declared names only, so a typo cannot silently
// drop a number from the report.
func (r *runResult) set(name string, v float64, n int) {
	m := declared(name)
	if m == nil {
		panic("benchmark: undeclared metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: m.Unit, N: n}
}

// problem records a failed output check that is not tied to one
// operation (a digest mismatch, a non-identical params file).
func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func declared(name string) *metric {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// finish fills every declared metric of the pass the run did not
// exercise with 0 (per-layer only — an end-to-end metric left unset is a
// bug) and settles Correct.
func (r *runResult) finish() {
	list := endToEnd
	if r.Traced {
		list = perLayer
	}
	for _, m := range list {
		if _, ok := r.Metrics[m.Name]; ok {
			continue
		}
		if !r.Traced {
			r.problem("end-to-end metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = value{Unit: m.Unit}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// driverLine is the last line of standard output: exactly the keys the
// driver's contract names.
func (r *runResult) driverLine() string {
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]driverValue, len(r.Metrics))}
	for name, v := range r.Metrics {
		out.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(data)
}

// render prints every metric of the run by name with its unit, in
// declaration order. A percentile resting on fewer than ten samples
// beyond it is marked.
func (r *runResult) render(w io.Writer) {
	pass := "timed pass (tracing off)"
	list := endToEnd
	if r.Traced {
		pass, list = "traced pass", perLayer
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.Correct)
	for _, m := range list {
		v := r.Metrics[m.Name]
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("  n=%d", v.N)
			if p := namedPercentile(m.Name); p > 0 && supportedPercentile(v.N) < p {
				note += "  (under-supported: <10 samples beyond)"
			}
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-8s%s\n", m.Name, v.Value, v.Unit, note)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// namedPercentile extracts the percentile a metric name claims
// ("lat_p90_ms" → 95), or 0.
func namedPercentile(name string) float64 {
	for _, p := range []struct {
		tag string
		p   float64
	}{{"_p50", 50}, {"_p90", 90}, {"_p95", 95}, {"_p99", 99}} {
		if strings.Contains(name, p.tag) {
			return p.p
		}
	}
	return 0
}

// resultFile is what -out writes and -compare reads: every run appended
// so far, each carrying its own environment stamp.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds r to the result file at path, creating it if absent.
func appendResult(path string, r *runResult) error {
	f, err := loadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o644)
}
