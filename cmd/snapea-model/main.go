// Command snapea-model inspects a network topology: per-layer output
// shapes, parameter counts and convolution MACs, plus the Table I
// summary — at either scale, without running anything.
//
//	snapea-model -net googlenet -scale full
//
// It is also the offline integrity tool for serialized artifacts —
// SNAPEA01 weights containers and params JSON files:
//
//	snapea-model -checksum alexnet.weights.bin    # rewrite with a fresh checksum trailer
//	snapea-model -verify alexnet.params.json      # per-tensor report; exit 1 on mismatch or legacy
//
// Both modes detect the artifact kind from its bytes (weights magic vs
// JSON) and need no model build. -checksum rewrites atomically and
// refuses to re-checksum an artifact whose existing checksums already
// mismatch — that would bless corruption as authentic.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"snapea/internal/atomicfile"
	"snapea/internal/cli"
	"snapea/internal/integrity"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/report"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

func main() {
	net := flag.String("net", "alexnet", "network (alexnet googlenet squeezenet vggnet lenet tinynet)")
	scale := flag.String("scale", "full", "reduced or full")
	classes := flag.Int("classes", 1000, "output classes")
	checksum := flag.String("checksum", "", "rewrite this weights/params artifact with fresh checksums (atomic) and exit")
	verify := flag.String("verify", "", "verify this artifact's checksums (per-tensor report) and exit; exit 1 on mismatch or missing checksums")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = none)")
	workers := cli.WorkersFlag(nil)
	obs := cli.ObsFlags(nil)
	flag.Parse()
	if err := cli.ApplyEnv(nil, cli.ObsEnv()); err != nil {
		cli.Fatalf("snapea-model", "%v", err)
	}
	workers.Apply()

	if *checksum != "" {
		cli.Exit(runChecksum(*checksum, os.Stdout))
	}
	if *verify != "" {
		cli.Exit(runVerify(*verify, os.Stdout))
	}

	obsStop, err := obs.Start("snapea-model")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cli.Exit(2)
	}
	defer obsStop()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	opt := models.Options{Classes: *classes, SkipInit: true}
	if *scale == "full" {
		opt.Scale = models.Full
	}
	m, err := models.Build(*net, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		cli.Exit(2)
	}
	if err := ctx.Err(); err != nil {
		cli.Fatalf("snapea-model", "%v", err)
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
	t.Render(os.Stdout)
	d := m.Describe()
	fmt.Printf("\n%d conv layers, %d FC layers, %.1f MB of weights, %.2fG MACs/image\n",
		d.ConvLayers, d.FCLayers, d.ModelSizeMB, float64(totalMACs)/1e9)
}

// isWeights reports whether the artifact bytes are a SNAPEA01 weights
// container (anything else is treated as a params JSON file).
func isWeights(data []byte) bool {
	return bytes.HasPrefix(data, []byte(integrity.WeightsMagic))
}

// runChecksum rewrites an artifact with fresh checksums, atomically,
// and reports it to out. Exit 0 on success, 2 on any error (unreadable,
// structurally invalid, or already checksummed with mismatching
// checksums).
func runChecksum(path string, out io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	var blessed []byte
	var what string
	if isWeights(data) {
		blessed, err = integrity.ChecksumWeights(data)
		what = "checksum trailer"
	} else {
		// ParseParams verifies any existing checksum block, so a corrupt
		// artifact errors out here instead of being re-blessed.
		var f *snapea.ParamsFile
		if f, err = snapea.ParseParams(data); err == nil {
			blessed, err = f.Marshal()
		}
		what = "checksums block"
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	if err := atomicfile.WriteFile(path, blessed, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	fmt.Fprintf(out, "%s: wrote %s (%d bytes)\n", path, what, len(blessed))
	return 0
}

// runVerify checks an artifact's checksums and prints a per-tensor (or
// per-layer) report to out. Exit 0 when every checksum matches, 1 on any
// mismatch or when the artifact carries no checksums, 2 on structural
// errors.
func runVerify(path string, out io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapea-model:", err)
		return 2
	}
	if isWeights(data) {
		checks, checksummed, err := integrity.VerifyWeights(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "snapea-model:", err)
			return 2
		}
		if !checksummed {
			fmt.Fprintf(out, "%s: legacy artifact (no checksum trailer); run -checksum to add one\n", path)
			return 1
		}
		bad := 0
		for _, c := range checks {
			status := "ok"
			if !c.OK {
				status = "MISMATCH"
				bad++
			}
			fmt.Fprintf(out, "%s/%s stored=%08x computed=%08x %s\n", c.Layer, c.Tensor, c.Stored, c.Computed, status)
		}
		if bad > 0 {
			fmt.Fprintf(out, "%s: %d of %d tensors corrupted\n", path, bad, len(checks))
			return 1
		}
		fmt.Fprintf(out, "%s: %d tensors verified\n", path, len(checks))
		return 0
	}
	// Params: decode without checksum enforcement so a corrupt file still
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
