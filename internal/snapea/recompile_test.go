package snapea

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"snapea/internal/faults"
	"snapea/internal/models"
	"snapea/internal/prune"
	"snapea/internal/tensor"
)

// samePlanState fails unless got and want hold the same compiled state:
// mode, parameters, faults and every kernel's tables and scalars, weights
// compared in Float32bits.
func samePlanState(t *testing.T, label string, got, want *LayerPlan) {
	t.Helper()
	if got.mode != want.mode || got.mono != want.mono || got.faults != want.faults || got.NegOrder != want.NegOrder ||
		!reflect.DeepEqual(got.Params, want.Params) || len(got.kernels) != len(want.kernels) {
		t.Fatalf("%s: plan header differs: mode %s/%s mono %v/%v faults %p/%p", label, got.mode, want.mode, got.mono, want.mono, got.faults, want.faults)
	}
	bits := func(w []float32) []uint32 {
		b := make([]uint32, len(w))
		for i, v := range w {
			b[i] = math.Float32bits(v)
		}
		return b
	}
	for k := range got.kernels {
		g, w := &got.kernels[k], &want.kernels[k]
		if !slices.Equal(bits(g.w), bits(w.w)) || !slices.Equal(g.index, w.index) ||
			!slices.Equal(g.offs, w.offs) || !slices.Equal(g.poffs, w.poffs) ||
			g.numSpec != w.numSpec || g.posEnd != w.posEnd || math.Float32bits(g.th) != math.Float32bits(w.th) ||
			g.bias != w.bias || g.cBase != w.cBase || g.stuck != w.stuck || g.negMono != w.negMono {
			t.Fatalf("%s: kernel %d differs from a fresh compile", label, k)
		}
		if !slices.Equal(bits(got.KernelWeights(k)), bits(want.KernelWeights(k))) {
			t.Fatalf("%s: KernelWeights(%d) differs from a fresh compile", label, k)
		}
	}
	if got.StateDigest() != want.StateDigest() || got.StateBytes() != want.StateBytes() {
		t.Fatalf("%s: StateDigest %#x, fresh %#x", label, got.StateDigest(), want.StateDigest())
	}
}

// sameRuns fails unless got and want compute the same outputs, in
// Float32bits, and the same counted trace on in, run counted and
// uncounted.
func sameRuns(t *testing.T, label string, got, want *LayerPlan, in *tensor.Tensor) {
	t.Helper()
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	gOut, gTr := got.Run(in, opts)
	wOut, wTr := want.Run(in, opts)
	if !sameBits(gOut.Data(), wOut.Data()) {
		t.Fatalf("%s: counted output differs from a fresh compile's", label)
	}
	if !reflect.DeepEqual(gTr, wTr) {
		t.Fatalf("%s: trace differs from a fresh compile's:\n  got  %+v\n  want %+v", label, *gTr, *wTr)
	}
	gOut, _ = got.runTo(nil, in, RunOpts{}, false)
	wOut, _ = want.runTo(nil, in, RunOpts{}, false)
	if !sameBits(gOut.Data(), wOut.Data()) {
		t.Fatalf("%s: uncounted output differs from a fresh compile's", label)
	}
}

// TestRecompileIntoSpareMatchesFresh drives one dirty spare plan per
// layer through exact → N=8 → N=2 with mixed thresholds → a zeroed
// weight → exact, then a faulty compile (bit flips in its tables, stuck
// kernels) and a clean one, on reduced SqueezeNet, GoogLeNet and AlexNet
// (grouped convolutions), and on reduced SqueezeNet with half of every
// layer's weights pruned, whose tables hold its nonzero taps alone. Each
// compile must reuse the spare and leave it
// equal to a fresh compile of the same parameters: state, digest,
// KernelWeights, and outputs and traces on a post-ReLU and a signed
// input, counted and uncounted. Without faults, every kernel's weights
// must also be Reorder's, so no two kernels share a window of the arena.
func TestRecompileIntoSpareMatchesFresh(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 5, WeightBitFlip: 0.02, StuckZero: 0.2})
	var stuck, flipped int
	for _, c := range []struct {
		name     string
		sparsity float64
	}{{"squeezenet", 0}, {"googlenet", 0}, {"alexnet", 0}, {"squeezenet", 0.5}} {
		name := c.name
		m, err := models.Build(name, models.Options{Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		if c.sparsity > 0 {
			prune.Convs(m, c.sparsity)
			name += "-pruned"
		}
		net := CompileExact(m)
		step := max(1, len(net.PlanOrder)/8)
		for li := 0; li < len(net.PlanOrder); li += step {
			node := net.PlanOrder[li]
			base := net.Plans[node]
			conv := base.Conv
			ksz, outC := conv.KernelSize(), conv.OutC
			rng := tensor.NewRNG(uint64(li) + 1)
			post := postReLUInput(base.inShape, rng)
			signed := tensor.New(base.inShape)
			tensor.FillUniform(signed, rng, -1, 1)

			uniform := func(n int) LayerParams {
				p := make(LayerParams, outC)
				for k := range p {
					p[k] = KernelParam{Th: 0.05, N: min(n, ksz-1)}
				}
				return p
			}
			mixed := make(LayerParams, outC)
			for k := range mixed {
				if k%3 != 2 {
					mixed[k] = KernelParam{Th: float32(rng.Float64()*0.2 - 0.1), N: min(2, ksz-1)}
				}
			}
			if c.sparsity > 0 {
				taps := len(base.tables.w)
				if 2*taps > outC*ksz+outC {
					t.Fatalf("%s/%s: %d of %d weights kept at sparsity %v", name, node, taps, outC*ksz, c.sparsity)
				}
				perTap := 4 + 4 + 8 + 8*min(1, base.strip.packed)
				if cap(base.tables.w) != taps {
					t.Fatalf("%s/%s: tables sized for %d taps, the layer has %d nonzero", name, node, cap(base.tables.w), taps)
				}
				t.Logf("%s/%s: kernel tables %d bytes, %d sized for every tap", name, node, perTap*taps, perTap*outC*ksz)
			}
			spare := base.recompile(nil, mixed, NegOriginal) // dirty
			type step struct {
				name   string
				params LayerParams
				zero   bool // zero one weight of kernel 1 (of 0 in 1-kernel layers)
				inj    *faults.Injector
			}
			for _, st := range []step{
				{"exact", AllExact(outC), false, nil},
				{"N=8", uniform(8), false, nil},
				{"N=2 mixed Th", mixed, false, nil},
				{"zeroed weight", mixed, true, nil},
				{"exact again", AllExact(outC), false, nil},
				{"faulty", mixed, false, inj},
				{"clean after faults", mixed, false, nil},
			} {
				label := fmt.Sprintf("%s/%s/%s", name, node, st.name)
				kz := min(1, outC-1)
				saved := conv.Kernel(kz)[ksz/2]
				if st.zero {
					conv.Kernel(kz)[ksz/2] = 0
				}
				fresh := compileLayer(node, conv, base.inShape, base.strip, st.params, NegByMagnitude, st.inj, nil)
				got := compileLayer(node, conv, base.inShape, base.strip, st.params, NegByMagnitude, st.inj, spare)
				if got != spare {
					t.Fatalf("%s: compile did not reuse the spare plan", label)
				}
				samePlanState(t, label, got, fresh)
				nnz := 0
				for _, v := range conv.Kernel(kz) {
					if v != 0 {
						nnz++
					}
				}
				if st.zero && (len(got.KernelWeights(kz)) != nnz || c.sparsity == 0 && nnz != ksz-1) {
					t.Fatalf("%s: kernel %d has %d weights, want nnz %d", label, kz, len(got.KernelWeights(kz)), nnz)
				}
				if st.inj != nil {
					for k := range got.kernels {
						if got.kernels[k].stuck {
							stuck++
						}
					}
					if got.StateDigest() != base.recompile(nil, st.params, NegByMagnitude).StateDigest() {
						flipped++
					}
				} else {
					for k := 0; k < outC; k++ {
						want := Reorder(conv.Kernel(k), st.params[k], NegByMagnitude).Weights
						if !sameBits(got.KernelWeights(k), want) {
							t.Fatalf("%s: KernelWeights(%d) is not kernel %d reordered", label, k, k)
						}
					}
				}
				for _, in := range []*tensor.Tensor{post, signed} {
					sameRuns(t, label, got, fresh, in)
				}
				conv.Kernel(kz)[ksz/2] = saved
			}
		}
	}
	if stuck == 0 || flipped == 0 {
		t.Fatalf("faulty compiles set %d stuck kernels and corrupted %d plans; the fault case wants both", stuck, flipped)
	}
}
