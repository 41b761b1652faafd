// Imageclassify runs the full SnaPEA pipeline on AlexNet end to end:
// the experiment suite builds the network with synthetic weights,
// calibrates it to the paper's negative fractions and trains the
// classifier head on the synthetic task; the example then classifies
// held-out images with exact-mode early activation — verifying the
// classifications are bit-identical to unaltered execution while a
// quarter of the convolution MACs disappear.
package main

import (
	"fmt"

	"snapea/internal/experiments"
	"snapea/internal/snapea"
	"snapea/internal/train"
)

func main() {
	fmt.Println("preparing AlexNet (reduced scale): build, calibrate, train head...")
	p := experiments.New(experiments.Config{Networks: []string{"alexnet"}, TestImages: 16}).Prepared("alexnet")
	m := p.Model
	fmt.Printf("calibrated: %.1f%% of conv outputs negative (paper reports %.0f%% for AlexNet)\n",
		100*p.Calib.Overall, 100*m.PaperNegFrac)

	net := snapea.CompileExact(m)
	trace := snapea.NewNetTrace()
	correct, identical := 0, 0
	for i, img := range p.TestImgs {
		feat := net.Feature(img, snapea.RunOpts{}, trace)
		if train.Predict(m.Head, feat) == p.TestLbls[i] {
			correct++
		}
		// Exact mode must classify identically to unaltered execution
		// (feature values match up to float re-association from the
		// reordered accumulation).
		if train.Predict(m.Head, p.BaseTestFeats[i]) == train.Predict(m.Head, feat) {
			identical++
		}
	}
	total, dense := trace.Totals()
	fmt.Printf("classified %d/%d test images correctly\n", correct, len(p.TestImgs))
	fmt.Printf("exact-mode classifications identical to unaltered execution: %d/%d images\n", identical, len(p.TestImgs))
	fmt.Printf("convolution MACs: %d of %d executed — %.1f%% eliminated with zero accuracy cost\n",
		total, dense, 100*(1-float64(total)/float64(dense)))
}
