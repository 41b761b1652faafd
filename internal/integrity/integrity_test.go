package integrity

import (
	"math"
	"strings"
	"testing"
)

func TestChecksumUpdateConsistency(t *testing.T) {
	a := []byte("the quick brown fox ")
	b := []byte("jumps over the lazy dog")
	whole := Checksum(append(append([]byte(nil), a...), b...))
	split := Update(Checksum(a), b)
	if whole != split {
		t.Fatalf("Update(Checksum(a), b) = %08x, Checksum(a+b) = %08x", split, whole)
	}
	if Checksum(nil) != 0 {
		t.Fatalf("Checksum(nil) = %08x, want 0", Checksum(nil))
	}
}

func TestProbeDataDeterministicAndDense(t *testing.T) {
	p1 := ProbeData(42, "tinynet/exact", 512)
	p2 := ProbeData(42, "tinynet/exact", 512)
	if len(p1) != 512 {
		t.Fatalf("len = %d, want 512", len(p1))
	}
	for i := range p1 {
		if math.Float32bits(p1[i]) != math.Float32bits(p2[i]) {
			t.Fatalf("probe not deterministic at %d: %v vs %v", i, p1[i], p2[i])
		}
		if p1[i] == 0 {
			t.Fatalf("probe element %d is zero; a zero input is blind to weight corruption", i)
		}
		if p1[i] <= -1 || p1[i] >= 1 {
			t.Fatalf("probe element %d = %v outside (-1, 1)", i, p1[i])
		}
	}
	other := ProbeData(42, "tinynet/predictive", 512)
	same := true
	for i := range p1 {
		if p1[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("probes for different sites are identical")
	}
}

func TestScrubberDetectsMutation(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	regions := []Region{
		{Name: "a", Bytes: 4, Digest: func() uint32 { return Checksum(buf[:4]) }},
		{Name: "b", Bytes: 4, Digest: func() uint32 { return Checksum(buf[4:]) }},
	}
	s := NewScrubber(nil, -1, regions)
	if bad := s.Scrub(); len(bad) != 0 {
		t.Fatalf("clean scrub flagged %v", bad)
	}
	buf[6] ^= 0x40 // corrupt region b only
	bad := s.Scrub()
	if len(bad) != 1 || bad[0] != "b" {
		t.Fatalf("scrub after corruption = %v, want [b]", bad)
	}
}

func TestScrubberNilSafe(t *testing.T) {
	var s *Scrubber
	if bad := s.Scrub(); bad != nil {
		t.Fatalf("nil scrubber Scrub = %v", bad)
	}
}

func TestCanaryCheck(t *testing.T) {
	state := []float32{1, 2, 3}
	run := func() []float32 { return append([]float32(nil), state...) }
	c := NewCanary(nil, run(), run)
	if err := c.Check(); err != nil {
		t.Fatalf("clean canary failed: %v", err)
	}
	state[1] = float32(math.Float32frombits(math.Float32bits(state[1]) ^ 1)) // one-ULP corruption
	err := c.Check()
	if err == nil {
		t.Fatal("canary passed after one-bit output change")
	}
	if !strings.Contains(err.Error(), "element 1") {
		t.Fatalf("canary error %q does not name the diverging element", err)
	}
	var nilC *Canary
	if err := nilC.Check(); err != nil {
		t.Fatalf("nil canary Check = %v", err)
	}
}

func TestCanaryLengthMismatch(t *testing.T) {
	c := NewCanary(nil, []float32{1, 2}, func() []float32 { return []float32{1} })
	if err := c.Check(); err == nil {
		t.Fatal("canary accepted an output of the wrong length")
	}
}
