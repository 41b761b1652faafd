package train

import (
	"math"
	"testing"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/parallel"
	"snapea/internal/tensor"
)

// TestFeaturesWorkerInvariance holds Features, which fans images out
// across the worker pool, to an image-by-image FeatureOf loop on one
// worker, bit for bit, at one, two and seven workers — on TinyNet and on
// AlexNet, whose grouped convolutions and FC layers fan out inside each
// forward too.
func TestFeaturesWorkerInvariance(t *testing.T) {
	defer parallel.SetLimit(0)
	for _, name := range []string{"tinynet", "alexnet"} {
		m, err := models.Build(name, models.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		samples := dataset.Generate(6, dataset.Config{HW: m.InputShape.H, Seed: 9})
		imgs := make([]*tensor.Tensor, len(samples))
		for i, s := range samples {
			imgs[i] = s.Image
		}
		calib.Calibrate(m, imgs[:2])
		parallel.SetLimit(1)
		want := make([][]float32, len(imgs))
		for i, img := range imgs {
			want[i] = FeatureOf(m, img)
		}
		for _, workers := range []int{1, 2, 7} {
			parallel.SetLimit(workers)
			got := Features(m, imgs)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d feature vectors, want %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s workers=%d: image %d has %d features, want %d", name, workers, i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
						t.Fatalf("%s workers=%d: image %d feature %d = %v, want %v", name, workers, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}
