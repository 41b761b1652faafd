package snapea

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// tieKernel returns a kernel of ksz weights of one kind: "ties" (a few
// magnitudes of both signs, so ±w pairs and repeats), "zeros" (ties
// plus exact zeros of both signs), "same" (one magnitude everywhere) or
// "random" (distinct magnitudes).
func tieKernel(kind string, ksz int, rng *rand.Rand) []float32 {
	w := make([]float32, ksz)
	for i := range w {
		switch kind {
		case "ties":
			w[i] = float32(rng.Intn(4)+1) / 4
			if rng.Intn(2) == 0 {
				w[i] = -w[i]
			}
		case "zeros":
			switch rng.Intn(5) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = float32(math.Copysign(0, -1))
			default:
				w[i] = float32(rng.Intn(3)+1) / 8
				if rng.Intn(2) == 0 {
					w[i] = -w[i]
				}
			}
		case "same":
			w[i] = 0.5
			if i%3 == 1 {
				w[i] = -0.5
			}
		default:
			w[i] = float32(rng.NormFloat64())
		}
	}
	return w
}

// reorderGolden is a hash of Reorder's output, per kernel size and
// kind, over N in {0, 1, 2, 4, 8, nnz-1} under both NegOrders, as
// recorded when Reorder sorted with sort.Slice.
var reorderGolden = []struct {
	ksz  int
	kind string
	hash uint64
}{
	{9, "ties", 0x33487a8bde74ad9},
	{9, "zeros", 0xe166e82a7064f7ab},
	{9, "same", 0x585d3c69cc0bf52f},
	{9, "random", 0xb670ba2112a72ced},
	{27, "ties", 0xd59015b5f0a7a259},
	{27, "zeros", 0xdbb170ddcc68eb0f},
	{27, "same", 0xeecd984265a96c5f},
	{27, "random", 0x15d939065b6bf983},
	{64, "ties", 0xa39980facee8d1cd},
	{64, "zeros", 0xcd4d292acffd2bc7},
	{64, "same", 0x982f658d66d088cd},
	{64, "random", 0xaf927703423bf045},
	{200, "ties", 0xabf74d37faa1104b},
	{200, "zeros", 0x54041cc942a38651},
	{200, "same", 0x665e7588e84939b5},
	{200, "random", 0xe17249f939b89ab5},
	{576, "ties", 0x2032ee517064670f},
	{576, "zeros", 0x6f2ba6a3997d6055},
	{576, "same", 0x3608bbb77492f131},
	{576, "random", 0x41757fbf432d886f},
}

// TestReorderIntoKeepsReorderOrder holds reorderInto, working in one
// dirty scratch and writing over dirty buffers, and Reorder to the
// order Reorder gave when it sorted with sort.Slice: the same speculation
// prefix, positives and negatives, magnitude and value ties included.
func TestReorderIntoKeepsReorderOrder(t *testing.T) {
	var s reorderScratch
	dstW, dstIdx := make([]float32, 1024), make([]int32, 1024)
	for _, g := range reorderGolden {
		w := tieKernel(g.kind, g.ksz, rand.New(rand.NewSource(int64(g.ksz))))
		nnz := 0
		for _, v := range w {
			if v != 0 {
				nnz++
			}
		}
		fresh, reused := fnv.New64a(), fnv.New64a()
		for _, n := range []int{0, 1, 2, 4, 8, nnz - 1} {
			for _, no := range []NegOrder{NegByMagnitude, NegOriginal} {
				p := KernelParam{Th: 0.125, N: n}
				for i := range dstW {
					dstW[i], dstIdx[i] = float32(math.NaN()), -1
				}
				rk := Reorder(w, p, no)
				fmt.Fprintf(fresh, "%d %d %d %v %v|", n, rk.NumSpec, rk.PosEnd, rk.Index, rk.Weights)
				rk = reorderInto(w, p, no, dstW, dstIdx, &s)
				fmt.Fprintf(reused, "%d %d %d %v %v|", n, rk.NumSpec, rk.PosEnd, rk.Index, rk.Weights)
				if len(rk.Weights) != nnz || cap(rk.Weights) != nnz || cap(rk.Index) != nnz {
					t.Fatalf("ksz %d %s N=%d: reorderInto gave %d weights (cap %d, %d), want %d", g.ksz, g.kind, n, len(rk.Weights), cap(rk.Weights), cap(rk.Index), nnz)
				}
			}
		}
		if got := fresh.Sum64(); got != g.hash {
			t.Errorf("ksz %d %s: Reorder hashes %#x, want %#x", g.ksz, g.kind, got, g.hash)
		}
		if got := reused.Sum64(); got != g.hash {
			t.Errorf("ksz %d %s: reorderInto hashes %#x, want %#x", g.ksz, g.kind, got, g.hash)
		}
	}
}
