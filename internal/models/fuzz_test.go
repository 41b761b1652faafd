package models

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestLoadWeightsRejectsTrailingData(t *testing.T) {
	m, _ := Build("tinynet", Options{Seed: 1})
	var buf bytes.Buffer
	if err := m.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xFF)
	err := m.LoadWeights(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestLoadWeightsRejectsNonFinite(t *testing.T) {
	m, _ := Build("tinynet", Options{Seed: 1})
	m.ConvNodes()[0].Conv.Weights.Data()[3] = float32(math.NaN())
	var buf bytes.Buffer
	if err := m.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, _ := Build("tinynet", Options{Seed: 1, SkipInit: true})
	err := fresh.LoadWeights(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN weight accepted: %v", err)
	}
}

func TestLoadWeightsRejectsEveryTruncationPoint(t *testing.T) {
	m, _ := Build("tinynet", Options{Seed: 1})
	var buf bytes.Buffer
	if err := m.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Any strict prefix must be rejected; sample a spread of cut points
	// (every byte would be slow on the weight payload).
	for cut := 0; cut < len(data); cut += 1 + len(data)/257 {
		fresh, _ := Build("tinynet", Options{Seed: 1, SkipInit: true})
		if err := fresh.LoadWeights(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", cut, len(data))
		}
	}
}

// FuzzLoadWeights drives arbitrary bytes through the SNAPEA01 reader.
// The property under test is "no panic, no runaway allocation": corrupt
// files must come back as errors.
func FuzzLoadWeights(f *testing.F) {
	m, err := Build("tinynet", Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := m.SaveWeights(&valid); err != nil {
		f.Fatal(err)
	}
	data := valid.Bytes()
	f.Add(data)                                       // the round-trippable stream
	f.Add(data[:len(data)/2])                         // truncated mid-payload
	f.Add(data[:11])                                  // truncated inside the model name
	f.Add([]byte("SNAPEA01"))                         // magic only
	f.Add([]byte("NOTAMAGIC"))                        // wrong magic
	f.Add(append([]byte(nil), append(data, 0xAB)...)) // trailing garbage
	big := append([]byte(nil), data...)
	big[8], big[9], big[10], big[11] = 0xFF, 0xFF, 0xFF, 0xFF // huge name length
	f.Add(big)

	f.Fuzz(func(t *testing.T, in []byte) {
		fresh, err := Build("tinynet", Options{Seed: 1, SkipInit: true})
		if err != nil {
			t.Fatal(err)
		}
		// Must never panic; errors are the expected outcome for almost
		// every input.
		_ = fresh.LoadWeights(bytes.NewReader(in))
	})
}
