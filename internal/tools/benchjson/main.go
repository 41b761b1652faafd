// Command benchjson converts `go test -bench` output piped through stdin
// into the machine-readable benchmark record the PR trajectory tracks
// (BENCH_PR7.json, written by `make bench`): one entry per benchmark
// with ns/op, allocation stats, and the worker count parsed from a
// `workers=N` name component. The raw bench lines are echoed to stdout
// so the terminal view is unchanged.
//
//	go test -bench . -benchmem ./... | go run ./internal/tools/benchjson -o BENCH_PR7.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"

	"snapea/internal/atomicfile"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers,omitempty"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// File is the JSON document layout.
type File struct {
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Results    []Result `json:"results"`
}

var (
	// e.g. "BenchmarkLayerPlanRun/workers=4-8   100  12345 ns/op  64 B/op  2 allocs/op"
	lineRe    = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)
	workersRe = regexp.MustCompile(`workers=(\d+)`)
)

func main() {
	out := flag.String("o", "", "output JSON path (required)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o is required")
		os.Exit(2)
	}

	file := File{GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Results: []Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Name: m[1]}
		r.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if wm := workersRe.FindStringSubmatch(m[1]); wm != nil {
			r.Workers, _ = strconv.Atoi(wm[1])
		}
		file.Results = append(file.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := atomicfile.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(file.Results), *out)
}
