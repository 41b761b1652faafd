package dataset

import (
	"math"
	"testing"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// generateSequential is Generate as it was before images were rendered
// in parallel: one stream, drawn image after image, channel by channel.
// It is the oracle TestGenerateWorkerInvariance holds Generate to.
func generateSequential(n int, cfg Config) []Sample {
	cfg = cfg.normalize()
	rng := tensor.NewRNG(cfg.Seed)
	out := make([]Sample, n)
	for i := range out {
		label := i % cfg.Classes
		out[i] = Sample{Image: renderSequential(label, cfg, rng), Label: label}
	}
	return out
}

func renderSequential(label int, cfg Config, rng *tensor.RNG) *tensor.Tensor {
	hw := cfg.HW
	img := tensor.New(tensor.Shape{N: 1, C: 3, H: hw, W: hw})
	d := img.Data()
	phase := rng.Float64() * 2 * math.Pi
	cx := 0.25 + 0.5*rng.Float64()
	cy := 0.25 + 0.5*rng.Float64()
	family := label % 4
	theta := math.Pi * float64(label) / float64(cfg.Classes)
	freq := 2 + float64(label%3)
	for c := 0; c < 3; c++ {
		chanGain := 0.7 + 0.3*math.Cos(float64(c)+float64(label))
		for y := 0; y < hw; y++ {
			fy := float64(y) / float64(hw)
			for x := 0; x < hw; x++ {
				fx := float64(x) / float64(hw)
				var v float64
				switch family {
				case 0: // oriented grating
					v = math.Sin(2*math.Pi*freq*(fx*math.Cos(theta)+fy*math.Sin(theta)) + phase)
				case 1: // checkerboard
					v = math.Sin(2*math.Pi*freq*fx+phase) * math.Sin(2*math.Pi*freq*fy+phase)
				case 2: // Gaussian blob at a random position
					dx, dy := fx-cx, fy-cy
					v = 2*math.Exp(-(dx*dx+dy*dy)*freq*8) - 1
				default: // diagonal gradient
					v = 2*math.Mod(freq*(fx+fy)+phase/(2*math.Pi), 1) - 1
				}
				v = 0.5 + 0.4*chanGain*v + cfg.Noise*rng.Norm()
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				d[img.Index(0, c, y, x)] = float32(v)
			}
		}
	}
	return img
}

// TestGenerateWorkerInvariance holds the parallel Generate to the
// sequential oracle bit for bit, at several image sizes and seeds and at
// one and two workers: each image's stream copy must start exactly where
// the previous image's draws ended.
func TestGenerateWorkerInvariance(t *testing.T) {
	defer parallel.SetLimit(0)
	for _, hw := range []int{8, 32, 64} {
		for _, seed := range []uint64{1, 3, 42} {
			cfg := Config{HW: hw, Seed: seed}
			want := generateSequential(23, cfg)
			for _, workers := range []int{1, 2} {
				parallel.SetLimit(workers)
				got := Generate(len(want), cfg)
				for i := range want {
					if got[i].Label != want[i].Label {
						t.Fatalf("hw=%d seed=%d workers=%d: image %d label %d, want %d", hw, seed, workers, i, got[i].Label, want[i].Label)
					}
					g, w := got[i].Image.Data(), want[i].Image.Data()
					for j := range w {
						if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
							t.Fatalf("hw=%d seed=%d workers=%d: image %d element %d = %v, want %v", hw, seed, workers, i, j, g[j], w[j])
						}
					}
				}
			}
		}
	}
}
