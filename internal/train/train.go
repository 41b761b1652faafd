// Package train fits the final fully-connected classifier head of a
// model by SGD on softmax cross-entropy, treating the frozen calibrated
// convolution stack as a random feature extractor. This supplies the
// baseline classification accuracy that the paper's Algorithm 1 budgets
// its speculation against (Table I / Eq. 2).
package train

import (
	"math"

	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// Config controls the SGD run.
type Config struct {
	LR     float64 // 0 means 0.05
	Epochs int     // 0 means 40
	L2     float64 // weight decay; 0 means 1e-4
	Seed   uint64  // shuffle seed; 0 means 1
	// FeatureNoise adds zero-mean Gaussian noise (std = FeatureNoise ×
	// the per-dimension feature std) to each training sample, which
	// gives the linear head a margin against small feature
	// perturbations — the robustness trained CNNs have naturally and
	// that the predictive mode's small-positive squashing relies on
	// (the paper: "the small positive values ... have slight effect on
	// the final classification accuracy").
	FeatureNoise float64
}

func (c Config) normalize() Config {
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Features runs the model's graph on each image and returns the
// flattened output of the feature node (the head's input). Images fan
// out across the worker pool into index-keyed slots.
func Features(m *models.Model, images []*tensor.Tensor) [][]float32 {
	out := make([][]float32, len(images))
	parallel.For(len(images), func(_, i int) {
		out[i] = FeatureOf(m, images[i])
	})
	return out
}

// FeatureOf returns the flattened feature vector for one image.
func FeatureOf(m *models.Model, img *tensor.Tensor) []float32 {
	var feat []float32
	m.Graph.ForwardTap(img, func(name string, t *tensor.Tensor) {
		if name == m.FeatureNode {
			cp := make([]float32, len(t.Data()))
			copy(cp, t.Data())
			feat = cp
		}
	})
	if feat == nil {
		panic("train: feature node not found in graph: " + m.FeatureNode)
	}
	return feat
}

// TrainHead fits head (in place) on the feature/label pairs.
func TrainHead(head *nn.FC, feats [][]float32, labels []int, cfg Config) {
	cfg = cfg.normalize()
	rng := tensor.NewRNG(cfg.Seed)
	order := make([]int, len(feats))
	for i := range order {
		order[i] = i
	}
	w := head.Weights.Data()
	probs := make([]float64, head.Out)
	var noisy []float32
	var featStd float64
	if cfg.FeatureNoise > 0 && len(feats) > 0 {
		noisy = make([]float32, len(feats[0]))
		var sum, sq float64
		n := 0
		for _, x := range feats {
			for _, v := range x {
				sum += float64(v)
				sq += float64(v) * float64(v)
				n++
			}
		}
		mean := sum / float64(n)
		featStd = math.Sqrt(sq/float64(n) - mean*mean)
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		// Fisher-Yates shuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		lr := cfg.LR / (1 + 0.1*float64(ep))
		for _, idx := range order {
			x, y := feats[idx], labels[idx]
			if noisy != nil {
				for i, v := range x {
					noisy[i] = v + float32(cfg.FeatureNoise*featStd*rng.Norm())
				}
				x = noisy
			}
			softmaxLogits(head, x, probs)
			for o := 0; o < head.Out; o++ {
				g := probs[o]
				if o == y {
					g -= 1
				}
				if g == 0 {
					continue
				}
				row := w[o*head.In : (o+1)*head.In]
				glr := float32(lr * g)
				for i, xv := range x {
					row[i] -= glr*xv + float32(lr*cfg.L2)*row[i]
				}
				head.Bias[o] -= glr
			}
		}
	}
}

// softmaxLogits computes head's class probabilities for feature x.
func softmaxLogits(head *nn.FC, x []float32, probs []float64) {
	w := head.Weights.Data()
	maxL := math.Inf(-1)
	for o := 0; o < head.Out; o++ {
		row := w[o*head.In : (o+1)*head.In]
		acc := float64(head.Bias[o])
		for i, xv := range x {
			acc += float64(xv) * float64(row[i])
		}
		probs[o] = acc
		if acc > maxL {
			maxL = acc
		}
	}
	var sum float64
	for o := range probs {
		probs[o] = math.Exp(probs[o] - maxL)
		sum += probs[o]
	}
	for o := range probs {
		probs[o] /= sum
	}
}

// Prob returns the softmax probability the head assigns to class y for
// feature x. The optimizer uses the drop of this quantity as a smooth
// surrogate for classification-accuracy loss on small optimization sets
// (see snapea.OptConfig.SoftLoss).
func Prob(head *nn.FC, x []float32, y int) float64 { return ProbT(head, x, y, 1) }

// ProbT is Prob with a softmax temperature: probabilities are computed
// from logits/temp. An overfit linear head saturates its softmax (probs
// ≈ 0 or 1), which collapses probability-based surrogates back into 0/1
// steps; evaluating at a calibrated temperature restores gradation.
func ProbT(head *nn.FC, x []float32, y int, temp float64) float64 {
	probs := make([]float64, head.Out)
	softmaxLogits(head, x, probs)
	// softmaxLogits fills probs with probabilities; recompute from
	// logits when a non-unit temperature is requested.
	if temp != 1 {
		logitsAt(head, x, probs)
		maxL := math.Inf(-1)
		for _, z := range probs {
			if z > maxL {
				maxL = z
			}
		}
		var sum float64
		for o := range probs {
			probs[o] = math.Exp((probs[o] - maxL) / temp)
			sum += probs[o]
		}
		for o := range probs {
			probs[o] /= sum
		}
	}
	return probs[y]
}

// logitsAt fills out with the head's raw logits for x.
func logitsAt(head *nn.FC, x []float32, out []float64) {
	w := head.Weights.Data()
	for o := 0; o < head.Out; o++ {
		row := w[o*head.In : (o+1)*head.In]
		acc := float64(head.Bias[o])
		for i, xv := range x {
			acc += float64(xv) * float64(row[i])
		}
		out[o] = acc
	}
}

// Predict returns the head's argmax class for feature x.
func Predict(head *nn.FC, x []float32) int {
	w := head.Weights.Data()
	best, bestV := 0, math.Inf(-1)
	for o := 0; o < head.Out; o++ {
		row := w[o*head.In : (o+1)*head.In]
		acc := float64(head.Bias[o])
		for i, xv := range x {
			acc += float64(xv) * float64(row[i])
		}
		if acc > bestV {
			best, bestV = o, acc
		}
	}
	return best
}

// Accuracy returns the fraction of feature/label pairs the head
// classifies correctly.
func Accuracy(head *nn.FC, feats [][]float32, labels []int) float64 {
	if len(feats) == 0 {
		return 0
	}
	correct := 0
	for i, x := range feats {
		if Predict(head, x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(feats))
}
