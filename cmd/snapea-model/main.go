// Command snapea-model inspects a network topology: per-layer output
// shapes, parameter counts and convolution MACs, plus the Table I
// summary — at either scale, without running anything.
//
//	snapea-model -net googlenet -scale full
//
// It is also the offline integrity tool for params JSON files, the one
// artifact the repository writes (weights are rebuilt from the model
// name and seed):
//
//	snapea-model -checksum alexnet.params.json    # rewrite with a fresh checksums block
//	snapea-model -verify alexnet.params.json      # per-layer report; exit 1 on mismatch or legacy
//
// Neither mode builds a model; a file that is not params JSON exits 2.
// -checksum rewrites atomically and refuses to re-checksum an artifact
// whose existing checksums already mismatch — that would bless
// corruption as authentic.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"snapea/internal/atomicfile"
	"snapea/internal/cli"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/report"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: the layer table (or the -checksum/-verify
// report) goes to stdout, errors to stderr. Bad flags exit 2 before any
// work. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snapea-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	net := fs.String("net", "alexnet", "network (alexnet googlenet squeezenet vggnet lenet tinynet)")
	scale := cli.ScaleFlag(fs, models.Full, "reduced or full")
	classes := fs.Int("classes", 1000, "output classes")
	checksum := fs.String("checksum", "", "rewrite this params file with fresh checksums (atomic) and exit")
	verify := fs.String("verify", "", "verify this params file's checksums (per-layer report) and exit; exit 1 on mismatch or missing checksums")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	workers := cli.WorkersFlag(fs)
	obs := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	workers.Apply()

	if *checksum != "" {
		return runChecksum(*checksum, stdout)
	}
	if *verify != "" {
		return runVerify(*verify, stdout)
	}

	obsStop, err := obs.Start("snapea-model")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	m, err := models.Build(*net, models.Options{Scale: *scale, Classes: *classes, SkipInit: true})
	if err != nil {
		fmt.Fprintln(stderr, "snapea-model:", err)
		return 2
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "snapea-model:", err)
		return 1
	}

	t := report.Table{
		Title:   fmt.Sprintf("%s (%s scale, input %v)", m.Name, *scale, m.InputShape),
		Headers: []string{"Layer", "Type", "Output", "Params", "MACs"},
	}
	shapes := map[string]tensor.Shape{nn.InputName: m.InputShape}
	var totalParams int
	var totalMACs int64
	for _, n := range m.Graph.Nodes() {
		ins := make([]tensor.Shape, len(n.Inputs))
		for i, name := range n.Inputs {
			ins[i] = shapes[name]
		}
		out := n.Layer.OutShape(ins)
		shapes[n.Name] = out
		params, macs := 0, int64(0)
		typ := fmt.Sprintf("%T", n.Layer)
		switch l := n.Layer.(type) {
		case *nn.Conv2D:
			typ = fmt.Sprintf("conv %dx%d/%d", l.KH, l.KW, l.StrideH)
			if l.Groups > 1 {
				typ += fmt.Sprintf(" g%d", l.Groups)
			}
			params = l.ParamCount()
			macs = int64(l.KernelSize()) * int64(out.C) * int64(out.H) * int64(out.W)
		case *nn.FC:
			typ = "fc"
			params = l.ParamCount()
			macs = int64(l.In) * int64(l.Out)
		case *nn.MaxPool2D:
			typ = fmt.Sprintf("maxpool %d/%d", l.K, l.Stride)
		case *nn.AvgPool2D:
			typ = fmt.Sprintf("avgpool %d/%d", l.K, l.Stride)
		case nn.GlobalAvgPool:
			typ = "global avgpool"
		case *nn.LRN:
			typ = "lrn"
		case nn.Concat:
			typ = "concat"
		case nn.Dropout:
			typ = "dropout"
		case nn.ReLU:
			typ = "relu"
		case nn.Softmax:
			typ = "softmax"
		}
		totalParams += params
		totalMACs += macs
		t.Add(n.Name, typ, out.String(), fmt.Sprint(params), fmt.Sprint(macs))
	}
	t.Render(stdout)
	d := m.Describe()
	fmt.Fprintf(stdout, "\n%d conv layers, %d FC layers, %.1f MB of weights, %.2fG MACs/image\n",
		d.ConvLayers, d.FCLayers, d.ModelSizeMB, float64(totalMACs)/1e9)
	return 0
}

// runChecksum rewrites a params file with fresh checksums, atomically,
// and reports it to out. Exit 0 on success, 2 on any error (unreadable,
// not params JSON, or already checksummed with mismatching checksums).
func runChecksum(path string, out io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	// ParseParams verifies any existing checksum block, so a corrupt
	// artifact errors out here instead of being re-blessed.
	var blessed []byte
	f, err := snapea.ParseParams(data)
	if err == nil {
		blessed, err = f.Marshal()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	if err := atomicfile.WriteFile(path, blessed, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	fmt.Fprintf(out, "%s: wrote checksums block (%d bytes)\n", path, len(blessed))
	return 0
}

// runVerify checks a params file's checksums and prints a per-layer
// report to out. Exit 0 when every checksum matches, 1 on any
// mismatch or when the artifact carries no checksums, 2 on structural
// errors.
func runVerify(path string, out io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	// Decode without checksum enforcement so a corrupt file still
	// yields the full per-layer report instead of one error.
	var f snapea.ParamsFile
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	if f.Checksums == nil {
		fmt.Fprintf(out, "%s: legacy artifact (no checksums block); run -checksum to add one\n", path)
		return 1
	}
	nodes := make([]string, 0, len(f.Layers))
	for node := range f.Layers {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	bad := 0
	for _, node := range nodes {
		computed := fmt.Sprintf("%08x", snapea.ChecksumLayerParams(f.Layers[node]))
		stored, ok := f.Checksums.Layers[node]
		status := "ok"
		switch {
		case !ok:
			stored, status = "(absent)", "MISSING"
			bad++
		case stored != computed:
			status = "MISMATCH"
			bad++
		}
		fmt.Fprintf(out, "%s stored=%s computed=%s %s\n", node, stored, computed, status)
	}
	if bad > 0 {
		fmt.Fprintf(out, "%s: %d of %d layers corrupted\n", path, bad, len(nodes))
		return 1
	}
	fmt.Fprintf(out, "%s: %d layers verified\n", path, len(nodes))
	return 0
}
