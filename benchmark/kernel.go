package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"snapea/internal/integrity"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/sim"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// sameAsDense is the exact-mode output check: SnaPEA logits s against
// dense logits g must pick the same class and differ by no more than
// float32 reassociation allows. The repository's own tolerance
// (TestNetworkExactEndToEnd) is 1e-3 on logits of magnitude ~10; the
// reduced VGG's logits reach 1e5, so the tolerance scales with them:
// 1e-4 of the largest dense logit, and 1e-3 at the test's scale.
func sameAsDense(s, g *tensor.Tensor) bool {
	scale := math.Max(10, math.Max(float64(g.Max()), -float64(g.Min())))
	return s.AbsDiffMax(g) <= 1e-4*scale && s.ArgMax() == g.ArgMax()
}

// gemmExec runs every convolution of a graph on im2col+GEMM — the dense
// baseline SnaPEA is compared against on the same shapes.
func gemmExec(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
	if conv, ok := node.Layer.(*nn.Conv2D); ok {
		return conv.ForwardGEMM(ins[0]), true
	}
	return nil, false
}

func forwardGEMM(m *models.Model, img *tensor.Tensor) *tensor.Tensor {
	return m.Graph.ForwardExec(img, nil, gemmExec)
}

// digestOf folds a tensor's float32 bits into a running CRC32C.
func digestOf(crc uint32, t *tensor.Tensor) uint32 {
	var buf [4]byte
	for _, f := range t.Data() {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
		crc = integrity.Update(crc, buf[:])
	}
	return crc
}

// pairTimes holds the per-image times of a paired SnaPEA/GEMM run.
type pairTimes struct {
	SnapeaMS, GemmMS []float64
	// Failed counts images whose SnaPEA output failed its check.
	Failed int
	// Digests holds the SnaPEA output digest of each distinct image run;
	// Agree whether its SnaPEA and GEMM outputs pick the same class.
	Digests map[int]uint32
	Agree   map[int]bool
}

// agreement is the share of the first k distinct images whose SnaPEA
// and dense outputs pick the same class.
func (pt *pairTimes) agreement(k int) float64 {
	same := 0
	for idx := 0; idx < k; idx++ {
		if pt.Agree[idx] {
			same++
		}
	}
	return float64(same) / float64(k)
}

// speedup is the median of the per-image GEMM time / SnaPEA time.
func (pt *pairTimes) speedup() float64 {
	ratios := make([]float64, len(pt.SnapeaMS))
	for i := range ratios {
		ratios[i] = pt.GemmMS[i] / pt.SnapeaMS[i]
	}
	return median(ratios)
}

// runPairs times images one at a time through net.Forward and through
// the same graph on GEMM, alternating which side goes first (ABBA) so
// cache warmth and frequency drift fall on both sides equally. It runs
// until `more` says stop, cycling over images. In exact mode each
// SnaPEA output is checked against the GEMM output of the same image.
func runPairs(net *snapea.Network, images []*tensor.Tensor, exact bool, more func(done int) bool) *pairTimes {
	pt := &pairTimes{Digests: make(map[int]uint32), Agree: make(map[int]bool)}
	m := net.Model
	for w := 0; w < 2 && w < len(images); w++ { // warm caches and lazy state
		net.Forward(images[w], snapea.RunOpts{}, nil)
		forwardGEMM(m, images[w])
	}
	for i := 0; more(i); i++ {
		idx := i % len(images)
		img := images[idx]
		var s, g *tensor.Tensor
		var ts, tg time.Duration
		timeS := func() { t := time.Now(); s = net.Forward(img, snapea.RunOpts{}, nil); ts = time.Since(t) }
		timeG := func() { t := time.Now(); g = forwardGEMM(m, img); tg = time.Since(t) }
		if i%2 == 0 {
			timeS()
			timeG()
		} else {
			timeG()
			timeS()
		}
		pt.SnapeaMS = append(pt.SnapeaMS, ms(ts))
		pt.GemmMS = append(pt.GemmMS, ms(tg))
		if exact && !sameAsDense(s, g) {
			pt.Failed++
		}
		if _, seen := pt.Digests[idx]; !seen {
			pt.Digests[idx] = digestOf(0, s)
			pt.Agree[idx] = s.ArgMax() == g.ArgMax()
		}
	}
	return pt
}

// until returns a runPairs stop function for a deadline, with a floor
// of minPairs so a stalled machine still yields a sample.
func until(deadline time.Time, minPairs int) func(int) bool {
	return func(done int) bool { return done < minPairs || time.Now().Before(deadline) }
}

func upTo(pairs int) func(int) bool { return func(done int) bool { return done < pairs } }

// allocPerOp runs op n times and returns the heap bytes and objects
// allocated per call.
func allocPerOp(n int, op func(i int)) (bytes, mallocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// counts is the exact-count phase's result: numbers that depend only on
// the seed, never on the host.
type counts struct {
	Trace       *snapea.NetTrace
	Snap, Base  *sim.Result
	SimHost     time.Duration
	N           int
	DenseRight  int // dense argmax == label
	SnapeaRight int // SnaPEA argmax == label
	Failed      int // exact-mode outputs outside tolerance
	Digests     []uint32
}

func (c *counts) digest() uint32 {
	var buf [4]byte
	var crc uint32
	for _, d := range c.Digests {
		binary.LittleEndian.PutUint32(buf[:], d)
		crc = integrity.Update(crc, buf[:])
	}
	return crc
}

// countPhase runs the images through the network with window and
// prediction accounting on, next to the dense graph, and cycle-simulates
// the collected trace on the SnaPEA and Eyeriss configurations.
func countPhase(ctx context.Context, net *snapea.Network, data split, exact bool) (*counts, error) {
	c := &counts{Trace: snapea.NewNetTrace(), N: len(data.Images)}
	m := net.Model
	opts := snapea.RunOpts{CollectWindows: true, CollectPrediction: !exact}
	for i, img := range data.Images {
		s := net.Forward(img, opts, c.Trace)
		g := forwardGEMM(m, img)
		if exact && !sameAsDense(s, g) {
			c.Failed++
		}
		if g.ArgMax() == data.Labels[i] {
			c.DenseRight++
		}
		if s.ArgMax() == data.Labels[i] {
			c.SnapeaRight++
		}
		c.Digests = append(c.Digests, digestOf(0, s))
	}
	t := time.Now()
	spill := sim.Spills(m)
	var err error
	if c.Snap, err = sim.SimulateCtx(ctx, sim.SnaPEAConfig(), sim.LoadsFromTrace(m, c.Trace, spill)); err != nil {
		return nil, err
	}
	if c.Base, err = sim.SimulateCtx(ctx, sim.EyerissConfig(), sim.LoadsDense(m, c.N, spill)); err != nil {
		return nil, err
	}
	c.SimHost = time.Since(t)
	return c, nil
}

// checkDigests compares the outputs a timed loop produced (window
// collection off) with the count phase's outputs of the same images
// (collection on): instrumentation must not change results.
func checkDigests(r *runResult, c *counts, timed map[int]uint32) {
	for idx, d := range timed {
		if idx < len(c.Digests) && c.Digests[idx] != d {
			r.problem("image %d: output with window collection on differs from output with it off", idx)
		}
	}
}

// reportCounts sets the end-to-end count metrics (timed pass) or their
// per-layer breakdown (traced pass).
func reportCounts(r *runResult, c *counts, trainedHead bool) {
	r.Failed += c.Failed
	r.Digest = fmt.Sprintf("%08x", c.digest())
	if !r.Traced {
		r.set("mac_reduction", c.Trace.Reduction(), 0)
		r.set("sim_speedup", c.Snap.Speedup(c.Base), 0)
		r.set("sim_energy_reduction", c.Snap.EnergyReduction(c.Base), 0)
		return
	}
	executed, dense := c.Trace.Totals()
	var windows, signZero, specZero int64
	for _, tr := range c.Trace.Layers {
		windows += tr.Windows
		signZero += tr.SignZero
		specZero += tr.SpecZero
	}
	tnr, fnr := c.Trace.Rates()
	r.set("snapea.macs_executed", float64(executed), 0)
	r.set("snapea.macs_dense", float64(dense), 0)
	r.set("snapea.windows", float64(windows), 0)
	r.set("snapea.sign_zero_share", float64(signZero)/float64(windows), 0)
	r.set("snapea.spec_zero_share", float64(specZero)/float64(windows), 0)
	r.set("snapea.tnr", tnr, 0)
	r.set("snapea.fnr", fnr, 0)
	if trainedHead {
		r.set("train.base_acc", float64(c.DenseRight)/float64(c.N), 0)
		r.set("snapea.acc_loss", float64(c.DenseRight-c.SnapeaRight)/float64(c.N), 0)
	}
	r.set("sim.host_ms", ms(c.SimHost), 1)
	r.set("sim.cycles_snapea", float64(c.Snap.Cycles), 0)
	r.set("sim.cycles_eyeriss", float64(c.Base.Cycles), 0)
	r.set("sim.macs", float64(c.Snap.MACs), 0)
}

// nodeStat is one graph node's row of the per-node table.
type nodeStat struct {
	Node       string  `json:"node"`
	Kernel     string  `json:"kernel,omitempty"` // "3x3x64" for convolutions
	Planned    bool    `json:"snapea_plan"`
	Calls      int     `json:"calls"`
	NS         int64   `json:"ns"`
	GemmNS     int64   `json:"gemm_ns"`
	MacsExec   int64   `json:"macs_executed"`
	MacsDense  int64   `json:"macs_dense"`
	NSPerMac   float64 `json:"ns_per_mac_executed"`
	GemmPerMac float64 `json:"gemm_ns_per_mac"`
}

// span is one traced interval: a graph node within an image, or a
// request with the stages reconstructed from its response.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// open starts a span whose end is not known yet; close ends it.
func (t *tracer) open(parent int, name string, start time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.us(start)})
	return id
}

func (t *tracer) close(id int, end time.Time) { t.spans[id-1].End = t.us(end) }

func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := t.open(parent, name, start)
	t.close(id, end)
	return id
}

// nodeTrace is the traced forward pass's aggregate over its images.
type nodeTrace struct {
	Images   int
	Nodes    []*nodeStat
	byName   map[string]*nodeStat
	Wall     time.Duration // Σ SnaPEA-side image spans
	Overhead time.Duration // Σ image-span self time (wall − node spans)
	WallMS   []float64     // per-image SnaPEA-side wall, for the overhead share
}

// tracedForward runs one image through the graph with every node inside
// a span under one image span: exec computes the node, each receives its
// duration. It returns the image span's duration and self time.
func tracedForward(tr *tracer, name string, g *nn.Graph, img *tensor.Tensor,
	exec func(*nn.Node, []*tensor.Tensor) *tensor.Tensor, each func(node string, d time.Duration)) (wall, self time.Duration) {
	var children []interval
	start := time.Now()
	id := tr.open(0, name, start)
	g.ForwardExec(img, nil, func(node *nn.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool) {
		t0 := time.Now()
		out := exec(node, ins)
		t1 := time.Now()
		tr.add(id, node.Name, t0, t1)
		children = append(children, interval{t0.Sub(start), t1.Sub(start)})
		each(node.Name, t1.Sub(t0))
		return out, true
	})
	end := time.Now()
	tr.close(id, end)
	wall = end.Sub(start)
	return wall, selfTime(interval{0, wall}, children)
}

// traceNodes runs images through both graphs node by node:
// net.Plans[n].Run for planned convolutions, Layer.Forward otherwise,
// ForwardGEMM for the baseline's convolutions.
func traceNodes(tr *tracer, net *snapea.Network, images []*tensor.Tensor, more func(done int) bool) *nodeTrace {
	m := net.Model
	nt := &nodeTrace{byName: make(map[string]*nodeStat)}
	for _, n := range m.Graph.Nodes() {
		st := &nodeStat{Node: n.Name, Planned: net.Plans[n.Name] != nil}
		if conv, ok := n.Layer.(*nn.Conv2D); ok {
			st.Kernel = fmt.Sprintf("%dx%dx%d", conv.KH, conv.KW, conv.InC/conv.Groups)
		}
		nt.Nodes = append(nt.Nodes, st)
		nt.byName[n.Name] = st
	}
	for i := 0; more(i); i++ {
		img := images[i%len(images)]
		wall, self := tracedForward(tr, "forward/snapea", m.Graph, img,
			func(node *nn.Node, ins []*tensor.Tensor) *tensor.Tensor {
				plan := net.Plans[node.Name]
				if plan == nil {
					return node.Layer.Forward(ins)
				}
				out, lt := plan.Run(ins[0], snapea.RunOpts{})
				st := nt.byName[node.Name]
				st.MacsExec += lt.TotalOps
				st.MacsDense += lt.DenseOps
				return out
			},
			func(node string, d time.Duration) {
				st := nt.byName[node]
				st.Calls++
				st.NS += int64(d)
			})
		nt.Wall += wall
		nt.WallMS = append(nt.WallMS, ms(wall))
		nt.Overhead += self

		tracedForward(tr, "forward/gemm", m.Graph, img,
			func(node *nn.Node, ins []*tensor.Tensor) *tensor.Tensor {
				if out, done := gemmExec(node, ins); done {
					return out
				}
				return node.Layer.Forward(ins)
			},
			func(node string, d time.Duration) { nt.byName[node].GemmNS += int64(d) })
		nt.Images++
	}
	for _, st := range nt.Nodes {
		if st.MacsExec > 0 {
			st.NSPerMac = float64(st.NS) / float64(st.MacsExec)
		}
		if st.MacsDense > 0 {
			st.GemmPerMac = float64(st.GemmNS) / float64(st.MacsDense)
		}
	}
	return nt
}

// report sets the snapea/nn per-layer timing metrics from the node
// table.
func (nt *nodeTrace) report(r *runResult) {
	var conv, other, gemmConv, slowest, macsExec, macsDense int64
	for _, st := range nt.Nodes {
		if !st.Planned {
			other += st.NS
			continue
		}
		conv += st.NS
		gemmConv += st.GemmNS
		macsExec += st.MacsExec
		macsDense += st.MacsDense
		if st.NS > slowest {
			slowest = st.NS
		}
	}
	n := nt.Images
	perImg := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	wall := float64(nt.Wall)
	r.set("snapea.conv_ms_per_img", perImg(conv), n)
	r.set("snapea.conv_share", float64(conv)/wall, n)
	r.set("snapea.ns_per_mac_executed", float64(conv)/float64(macsExec), n)
	r.set("snapea.ns_per_mac_dense", float64(conv)/float64(macsDense), n)
	r.set("snapea.slowest_layer_share", float64(slowest)/wall, n)
	r.set("nn.gemm_conv_ms_per_img", perImg(gemmConv), n)
	r.set("nn.ns_per_mac_gemm", float64(gemmConv)/float64(macsDense), n)
	r.set("nn.other_ms_per_img", perImg(other), n)
	r.set("nn.other_share", float64(other)/wall, n)
	r.set("nn.graph_overhead_ms_per_img", perImg(int64(nt.Overhead)), n)
	// The share of the MAC reduction that survives as convolution time
	// saved against GEMM on the same layers; negative when SnaPEA's
	// convolutions are slower than GEMM's despite skipping MACs.
	if reduction := 1 - float64(macsExec)/float64(macsDense); reduction > 0 {
		r.set("snapea.time_yield", (1-float64(conv)/float64(gemmConv))/reduction, n)
	}
}

// kernelProbe is the traced pass's look inside the forward: untraced
// pairs (the reference for trace.overhead_share), node-traced pairs,
// and single-worker SnaPEA forwards for parallel.speedup_w1. budget is
// split a quarter / a half / a quarter.
func kernelProbe(r *runResult, tr *tracer, net *snapea.Network, images []*tensor.Tensor, exact bool, budget time.Duration, minPairs int) *nodeTrace {
	start := time.Now()
	plain := runPairs(net, images, exact, until(start.Add(budget/4), minPairs))
	r.Failed += plain.Failed
	r.Attempted += len(plain.SnapeaMS)

	nt := traceNodes(tr, net, images, until(start.Add(3*budget/4), minPairs))
	nt.report(r)
	if _, set := r.Metrics["trace.overhead_share"]; !set { // the serving workloads report their load phase's
		r.set("trace.overhead_share", median(nt.WallMS)/median(plain.SnapeaMS)-1, nt.Images)
	}

	limit := parallel.Limit()
	r.set("parallel.workers", float64(limit), 0)
	parallel.SetLimit(1)
	var single []float64
	deadline := start.Add(budget)
	for i := 0; i < minPairs || time.Now().Before(deadline); i++ {
		t := time.Now()
		net.Forward(images[i%len(images)], snapea.RunOpts{}, nil)
		single = append(single, ms(time.Since(t)))
	}
	parallel.SetLimit(limit)
	r.set("parallel.speedup_w1", median(single)/median(plain.SnapeaMS), len(single))

	_, mallocs := allocPerOp(min(8, len(images)), func(i int) {
		net.Forward(images[i], snapea.RunOpts{}, nil)
	})
	r.set("tensor.mallocs_per_img", mallocs, min(8, len(images)))
	return nt
}
