// Package dataset generates the synthetic labelled image sets that stand
// in for ImageNet (see DESIGN.md). Each class is a distinct visual
// pattern — oriented gratings, checkerboards, Gaussian blobs, gradients —
// corrupted by noise, so a random-feature CNN with a trained linear head
// separates them with realistic (non-trivial, non-perfect) accuracy, and
// the zero patterns in intermediate feature maps vary per image as in the
// paper's Figure 2.
package dataset

import (
	"math"

	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// Sample is one labelled image.
type Sample struct {
	Image *tensor.Tensor // {1,3,H,W}, values roughly in [0,1]
	Label int
}

// Config parameterizes generation.
type Config struct {
	Classes int     // number of classes; 0 means 10
	HW      int     // spatial size; 0 means 32
	Noise   float64 // additive Gaussian noise std; 0 means 0.15
	Seed    uint64
}

func (c Config) normalize() Config {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.HW == 0 {
		c.HW = 32
	}
	if c.Noise == 0 {
		c.Noise = 0.15
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Generate produces n samples with labels balanced round-robin over the
// classes. Generation is deterministic for a given config: the images
// are those of one xorshift stream drawn image after image, but each is
// rendered from its own copy of the stream, positioned by a draw-only
// pre-pass, so the images fan out across the worker pool.
func Generate(n int, cfg Config) []Sample {
	cfg = cfg.normalize()
	rng := tensor.NewRNG(cfg.Seed)
	starts := make([]tensor.RNG, n)
	for i := range starts {
		starts[i] = *rng
		skipRender(rng, cfg.HW)
	}
	out := make([]Sample, n)
	pats := make([][]float64, parallel.Workers(n))
	parallel.For(n, func(w, i int) {
		if pats[w] == nil {
			pats[w] = make([]float64, cfg.HW*cfg.HW)
		}
		label := i % cfg.Classes
		out[i] = Sample{Image: render(label, cfg, &starts[i], pats[w]), Label: label}
	})
	return out
}

// skipRender advances rng past exactly the draws render makes for one
// hw×hw image, without their transforms: three uniforms, then per pixel
// and channel the two uniforms of RNG.Norm (u1 redrawn while zero, u2).
func skipRender(rng *tensor.RNG, hw int) {
	for i := 0; i < 3; i++ {
		rng.Float64()
	}
	for i := 0; i < 3*hw*hw; i++ {
		for rng.Float64() == 0 {
		}
		rng.Float64()
	}
}

// Split divides samples into an optimization set (the paper's Algorithm 1
// training input) and a held-out test set.
func Split(samples []Sample, optFrac float64) (opt, test []Sample) {
	k := int(float64(len(samples)) * optFrac)
	if k < 1 {
		k = 1
	}
	if k >= len(samples) {
		k = len(samples) - 1
	}
	return samples[:k], samples[k:]
}

// render draws one image of the given class. Class identity controls the
// base pattern family and its parameters; per-image randomness controls
// phase, position and noise so no two images are alike. pat is scratch
// of HW² values.
func render(label int, cfg Config, rng *tensor.RNG, pat []float64) *tensor.Tensor {
	hw := cfg.HW
	img := tensor.New(tensor.Shape{N: 1, C: 3, H: hw, W: hw})
	d := img.Data()
	phase := rng.Float64() * 2 * math.Pi
	cx := 0.25 + 0.5*rng.Float64()
	cy := 0.25 + 0.5*rng.Float64()
	family := label % 4
	theta := math.Pi * float64(label) / float64(cfg.Classes)
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	freq := 2 + float64(label%3)
	// The class pattern does not depend on the channel: compute it once
	// per pixel.
	for y := 0; y < hw; y++ {
		fy := float64(y) / float64(hw)
		for x := 0; x < hw; x++ {
			fx := float64(x) / float64(hw)
			var v float64
			switch family {
			case 0: // oriented grating
				v = math.Sin(2*math.Pi*freq*(fx*cosT+fy*sinT) + phase)
			case 1: // checkerboard
				v = math.Sin(2*math.Pi*freq*fx+phase) * math.Sin(2*math.Pi*freq*fy+phase)
			case 2: // Gaussian blob at a random position
				dx, dy := fx-cx, fy-cy
				v = 2*math.Exp(-(dx*dx+dy*dy)*freq*8) - 1
			default: // diagonal gradient
				v = 2*math.Mod(freq*(fx+fy)+phase/(2*math.Pi), 1) - 1
			}
			pat[y*hw+x] = v
		}
	}
	for c := 0; c < 3; c++ {
		chanGain := 0.7 + 0.3*math.Cos(float64(c)+float64(label))
		plane := d[c*hw*hw : (c+1)*hw*hw]
		for i, p := range pat {
			v := 0.5 + 0.4*chanGain*p + cfg.Noise*rng.Norm()
			// Clamp to [0, 1]: SnaPEA's exact-mode guarantee needs
			// non-negative convolution inputs, which real pixel data
			// satisfies.
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			plane[i] = float32(v)
		}
	}
	return img
}
