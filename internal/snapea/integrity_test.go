package snapea

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"snapea/internal/faults"
	"snapea/internal/nn"
	"snapea/internal/tensor"
)

func TestParamsChecksumRoundTrip(t *testing.T) {
	f, err := ParseParams([]byte(validParamsJSON()))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Marshal writes the checksums block; the strict parser accepts it.
	re, err := ParseParamsChecked(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if re.Checksums == nil || re.Checksums.Algo != ChecksumAlgo {
		t.Fatalf("re-parsed checksums block = %+v", re.Checksums)
	}
	// Re-marshalling is stable: the checksum covers decoded values, not
	// JSON text, so a load/save cycle cannot invalidate it.
	again, err := re.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("marshal→parse→marshal changed the artifact bytes")
	}
}

func TestParamsChecksumDetectsTamper(t *testing.T) {
	f, err := ParseParams([]byte(validParamsJSON()))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a decoded value while keeping the stale checksum block:
	// re-marshal through encoding/json, bypassing Marshal's recompute.
	var tampered ParamsFile
	if err := json.Unmarshal(data, &tampered); err != nil {
		t.Fatal(err)
	}
	tampered.Layers["conv1"][0].N++
	raw, err := json.Marshal(&tampered)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseParams(raw)
	if err == nil {
		t.Fatal("tampered params accepted")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error %q does not name the checksum mismatch", err)
	}
}

func TestParamsChecksumPolicy(t *testing.T) {
	legacy := []byte(validParamsJSON())
	if _, err := ParseParams(legacy); err != nil {
		t.Fatalf("legacy params rejected by default policy: %v", err)
	}
	_, err := ParseParamsChecked(legacy, true)
	if err == nil {
		t.Fatal("legacy params accepted with checksums required")
	}
	if !strings.Contains(err.Error(), "no checksums block") {
		t.Fatalf("error %q does not name the missing block", err)
	}
}

func TestParamsChecksumRejectsUnknownLayerAndAlgo(t *testing.T) {
	good := fmt.Sprintf("%08x", ChecksumLayerParams(LayerParams{{Th: 0, N: 1}}))
	unknown := `{
		"layers": {"conv1": [{"th": 0, "n": 1}]},
		"checksums": {"algo": "crc32c", "layers": {"conv1": "` + good + `", "ghost": "00000000"}}
	}`
	if _, err := ParseParams([]byte(unknown)); err == nil || !strings.Contains(err.Error(), "unknown layer") {
		t.Fatalf("unknown-layer checksum entry: err = %v", err)
	}
	badAlgo := `{
		"layers": {"conv1": [{"th": 0, "n": 1}]},
		"checksums": {"algo": "md5", "layers": {}}
	}`
	if _, err := ParseParams([]byte(badAlgo)); err == nil || !strings.Contains(err.Error(), "algo") {
		t.Fatalf("unsupported algo: err = %v", err)
	}
}

func TestChecksumLayerParamsCanonical(t *testing.T) {
	p := LayerParams{{Th: -0.25, N: 4}, {Th: 0, N: 0}}
	c1 := ChecksumLayerParams(p)
	if c2 := ChecksumLayerParams(p); c2 != c1 {
		t.Fatalf("checksum unstable: %08x vs %08x", c1, c2)
	}
	th := LayerParams{{Th: -0.25000003, N: 4}, {Th: 0, N: 0}}
	if ChecksumLayerParams(th) == c1 {
		t.Fatal("Th change did not change the checksum")
	}
	n := LayerParams{{Th: -0.25, N: 5}, {Th: 0, N: 0}}
	if ChecksumLayerParams(n) == c1 {
		t.Fatal("N change did not change the checksum")
	}
}

func TestStateDigestTracksLiveWeights(t *testing.T) {
	m := buildTestModel(t)
	net := Compile(m, nil, NegByMagnitude)
	if len(net.PlanOrder) == 0 {
		t.Fatal("compiled network has no conv plans")
	}
	p := net.Plans[net.PlanOrder[0]]
	if p.StateBytes() <= 0 {
		t.Fatalf("StateBytes = %d, want > 0", p.StateBytes())
	}
	d1 := p.StateDigest()
	if d2 := p.StateDigest(); d2 != d1 {
		t.Fatalf("digest unstable on unchanged state: %08x vs %08x", d1, d2)
	}
	w := p.KernelWeights(0)
	if len(w) == 0 {
		t.Fatal("kernel 0 has no weights")
	}
	orig := w[0]
	w[0] = math.Float32frombits(math.Float32bits(orig) ^ (1 << 22)) // single-bit flip
	if p.StateDigest() == d1 {
		t.Fatal("digest unchanged after a weight bit flip")
	}
	w[0] = orig
	if p.StateDigest() != d1 {
		t.Fatal("digest does not return to golden after restoring the weight")
	}
}

// TestBorderWindowsReadScrubbedWeights closes the hole the per-border
// weight copies used to leave: on a plane that is all border (3x3 pad 1
// on 2x2, every window packed) one bit flipped through KernelWeights
// must change both the output and the digest the scrubber compares.
// Weights are positive and every image has a single 1.0 pixel, so each
// output equals exactly one weight and no flip can round away.
func TestBorderWindowsReadScrubbedWeights(t *testing.T) {
	conv := nn.NewConv2D(1, 2, 3, 3, 1, 1, 1, true)
	for i := range conv.Weights.Data() {
		conv.Weights.Data()[i] = float32(i + 1)
	}
	plan := NewLayerPlan("ring", conv, tensor.Shape{N: 1, C: 1, H: 2, W: 2}, nil, NegByMagnitude)
	if len(plan.strip.strips) != 0 || plan.strip.packed != 4 {
		t.Fatalf("plane not all border: %d in-place strips, %d packed windows", len(plan.strip.strips), plan.strip.packed)
	}
	in := tensor.New(tensor.Shape{N: 4, C: 1, H: 2, W: 2})
	for n := 0; n < 4; n++ {
		in.Data()[n*4+n] = 1
	}
	golden, _ := plan.Run(in, RunOpts{})
	digest := plan.StateDigest()

	const k = 1
	if i := faults.New(faults.Config{Seed: 5, WeightFlipLimit: 1}).FlipOneBit("ring/k1", plan.KernelWeights(k)); i < 0 {
		t.Fatal("no bit flipped")
	}
	if plan.StateDigest() == digest {
		t.Fatal("digest unchanged after a bit flip in KernelWeights")
	}
	got, _ := plan.Run(in, RunOpts{})
	changed := false
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(golden.Data()[i]) {
			if (i/4)%2 != k {
				t.Fatalf("output %d of the untouched kernel changed", i)
			}
			changed = true
		}
	}
	if !changed {
		t.Fatal("border outputs unchanged after a bit flip in KernelWeights")
	}
}
