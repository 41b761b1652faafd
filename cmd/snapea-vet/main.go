// Command snapea-vet runs the repository's static invariant analyzers
// (internal/tools/snapeavet) over the whole module: determinism
// (detorder, nowallclock), durability (atomicwrite) and metric
// conventions (metricdomain). It prints one line per finding and exits
// 1 when any invariant is violated, 2 on load or usage errors — the
// same contract as go vet, so `make vet-snapea` can sit next to `go
// vet` in the ci chain.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snapea/internal/tools/snapeavet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snapea-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root (directory containing go.mod)")
	names := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: snapea-vet [-root dir] [-run name,...] [./...]\n\n")
		fmt.Fprintf(stderr, "Runs the snapea invariant analyzers over the whole module.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range snapeavet.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	// Accept "./..." for go-vet muscle memory; the checker always
	// analyzes the whole module rooted at -root.
	for _, arg := range fs.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(stderr, "snapea-vet: unsupported package pattern %q (the whole module is always analyzed)\n", arg)
			return 2
		}
	}

	var want []string
	if *names != "" {
		want = strings.Split(*names, ",")
	}
	diags, err := snapeavet.Run(*root, want)
	if err != nil {
		fmt.Fprintf(stderr, "snapea-vet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "snapea-vet: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}
