package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"snapea/internal/tensor"
)

// jsonOracle is the pure encoding/json decode of a /v1/predict body —
// the definition of the accepted language and of every error text that
// parseInput must never be seen to change.
func jsonOracle(raw []byte, shape tensor.Shape) ([]float32, error) {
	var in struct {
		Input []float32 `json:"input"`
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&in); err != nil {
		return nil, fmt.Errorf("serve: decode JSON body: %w", err)
	}
	if len(in.Input) != shape.Elems() {
		return nil, fmt.Errorf("serve: input has %d elements, want %d (shape %s)",
			len(in.Input), shape.Elems(), shape)
	}
	return in.Input, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeSeeds are bodies on and around the edge of the fast path, with
// the element count each is decoded against.
var decodeSeeds = []struct {
	body  string
	elems int
	fast  bool // parseInput takes it; every other body is encoding/json's
}{
	{`{"input":[1,2.5,-3e2]}`, 3, true},
	{`{"input":[-0]}`, 1, true},
	{`{"input":[1e-46]}`, 1, true},         // underflows to 0: accepted
	{`{"input":[3.4028235e38]}`, 1, true},  // largest float32
	{`{"input":[3.4028236e38]}`, 1, false}, // float32 overflow: rejected
	{`{"input":[1e999]}`, 1, false},
	{`{"input":[0.1234567890123456789012345678901234567890e-1]}`, 1, true},
	{`{"input":[01]}`, 1, false},
	{`{"input":[1.]}`, 1, false},
	{`{"input":[.5]}`, 1, false},
	{`{"input":[+1]}`, 1, false},
	{`{"input":[0x10]}`, 1, false},
	{`{"input":[NaN]}`, 1, false},
	{`{"input":[Infinity]}`, 1, false},
	{`{"input":[1_0]}`, 1, false},
	{`{"input":[1e]}`, 1, false},
	{`{"input":[-]}`, 1, false},
	{`{"input":[null]}`, 1, false},
	{`{"input":["1"]}`, 1, false},
	{`{"input":null}`, 0, false},
	{`{"input":null}`, 1, false},
	{`{"Input":[1]}`, 1, false},
	{`{"INPUT":[1]}`, 1, false},
	{`{"\u0069nput":[1]}`, 1, false},
	{`{"x":1,"input":[1]}`, 1, false},
	{`{"input":[1],"x":1}`, 1, false},
	{`{"input":[1],"input":[2]}`, 1, false},
	{`{"input":[]}`, 0, true},
	{`{"input":[]}`, 1, false},
	{`{"input":[ ]}`, 0, true},
	{`{"input":[1,2,3]}`, 2, false},
	{`{"input":[1,2,3]}`, 4, false},
	{`{"input":[1,]}`, 1, false},
	{`{"input":[,1]}`, 1, false},
	{`{"input":[1 2]}`, 2, false},
	{`{"input":[1]} {"input":[2]}`, 1, false},
	{`{"input":[1]}x`, 1, false},
	{`{"input":[1]`, 1, false},
	{`{"input":[1`, 1, false},
	{`{"input":`, 1, false},
	{"\t{\n\"input\"\r:\t[ 1 ,\n2 ]\n}\n", 2, true},
	{"\ufeff{\"input\":[1]}", 1, false},
	{`[1]`, 1, false},
	{`1`, 1, false},
	{``, 1, false},
}

// FuzzDecodeInput: for arbitrary bytes and element counts 0–8, the fast
// path followed by its fallback returns exactly what encoding/json alone
// returns — same accept/reject, same bits per element, same error text.
func FuzzDecodeInput(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body), uint8(s.elems))
	}
	s := &Server{pool: newTensorPool()}
	f.Fuzz(func(t *testing.T, raw []byte, n uint8) {
		shape := tensor.Shape{N: 1, C: int(n % 9), H: 1, W: 1}
		want, wantErr := jsonOracle(raw, shape)

		// What the fast path takes, encoding/json takes, to the same bits.
		dst := make([]float32, shape.Elems())
		if parseInput(raw, dst) && (wantErr != nil || !sameBits(dst, want)) {
			t.Fatalf("parseInput accepted %q as %v; encoding/json: %v, %v", raw, dst, want, wantErr)
		}
		if !shape.Valid() {
			return // a zero-element model cannot exist; decodeInput has no tensor for it
		}
		// Content-Length only sizes the read buffer: unknown, short of the
		// body and exact must all decode alike.
		for _, cl := range []int64{-1, int64(len(raw) / 2), int64(len(raw))} {
			req := &http.Request{Body: io.NopCloser(bytes.NewReader(raw)), ContentLength: cl}
			got, err := s.decodeInput(req, &entry{inShape: shape})
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%q (Content-Length %d): decodeInput err %v, encoding/json err %v", raw, cl, err, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%q (Content-Length %d): error text %q, want %q", raw, cl, err, wantErr)
			case err == nil && !sameBits(got.Data(), want):
				t.Fatalf("%q (Content-Length %d): decoded %v, want %v", raw, cl, got.Data(), want)
			}
			s.pool.Put(got)
		}
	})
}

// TestParseInputScope pins which side of the fast path a body lands on:
// the fuzz target proves the two paths agree, not that the fast one is
// ever taken.
func TestParseInputScope(t *testing.T) {
	for _, s := range decodeSeeds {
		if got := parseInput([]byte(s.body), make([]float32, s.elems)); got != s.fast {
			t.Errorf("parseInput(%q, %d elems) = %v, want %v", s.body, s.elems, got, s.fast)
		}
	}
	// The body every client in this repo sends: encoding/json's own output.
	body := jsonBody(t, 768, 7).Bytes()
	dst := make([]float32, 768)
	if !parseInput(body, dst) {
		t.Fatal("parseInput declined an encoding/json-marshalled body")
	}
	if want, err := jsonOracle(body, tensor.Shape{N: 1, C: 768, H: 1, W: 1}); err != nil || !sameBits(dst, want) {
		t.Fatalf("marshalled body decoded differently (oracle err %v)", err)
	}
}

// BenchmarkDecodeInput puts the remaining JSON premium on record: one
// tinynet input (768 floats) through decodeInput as a JSON body and as
// the raw little-endian float32 body of the same tensor, each with the
// Content-Length a client sends.
func BenchmarkDecodeInput(b *testing.B) {
	shape := tensor.Shape{N: 1, C: 3, H: 16, W: 16}
	in := tensor.New(shape)
	tensor.FillNorm(in, tensor.NewRNG(7), 0, 1)
	jsonBytes, err := json.Marshal(map[string]any{"input": in.Data()})
	if err != nil {
		b.Fatal(err)
	}
	rawBytes := make([]byte, 4*shape.Elems())
	for i, v := range in.Data() {
		binary.LittleEndian.PutUint32(rawBytes[4*i:], math.Float32bits(v))
	}
	s := &Server{pool: newTensorPool()}
	e := &entry{inShape: shape}
	for _, c := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", jsonBytes},
		{"raw", "application/octet-stream", rawBytes},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
			req.Header.Set("Content-Type", c.contentType)
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req.Body = io.NopCloser(bytes.NewReader(c.body))
				req.ContentLength = int64(len(c.body))
				t, err := s.decodeInput(req, e)
				if err != nil {
					b.Fatal(err)
				}
				s.pool.Put(t)
			}
		})
	}
}
