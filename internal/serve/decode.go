package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// maxFloat32JSON is the longest text encoding/json writes for one
// float32: a minus sign and the 21 digits of the largest float32 below
// 1e21, where it switches to exponent form. TestBodiesOfEveryModel
// derives it.
const maxFloat32JSON = 22

// decodeInput reads the request body as either JSON ({"input": [...]})
// or raw little-endian float32 (Content-Type: application/octet-stream)
// into a fresh {1,C,H,W} tensor that the request owns from then on. The
// input must carry exactly the model's input element count and be
// finite — early termination is undefined on non-finite partial sums.
// A body may be 64 KiB longer than the longest one of that many
// elements in its encoding.
func decodeInput(r *http.Request, shape tensor.Shape) (*tensor.Tensor, error) {
	const slack = 1 << 16
	elems := shape.Elems()
	t := tensor.New(shape)
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		n, err := readRaw(http.MaxBytesReader(nil, r.Body, int64(elems)*4+slack), t.Data())
		if err != nil {
			return nil, fmt.Errorf("serve: read body: %w", err)
		}
		if n != int64(elems)*4 {
			return nil, fmt.Errorf("serve: raw input is %d bytes, want %d (%d float32, shape %s)",
				n, elems*4, elems, shape)
		}
	} else {
		limit := int64(elems)*(maxFloat32JSON+1) + slack
		body := http.MaxBytesReader(nil, r.Body, limit)
		// Read into one buffer sized from Content-Length (a hint, capped
		// by the limit): growing from nothing copies an 8 KB body about
		// four times over. What is read, and every error, is the same
		// either way.
		var buf bytes.Buffer
		if n := min(r.ContentLength, limit); n > 0 {
			buf.Grow(int(n) + bytes.MinRead)
		}
		if _, err := buf.ReadFrom(body); err != nil || !parseInput(buf.Bytes(), t.Data()) {
			// Not the canonical body (see parseInput): encoding/json
			// decides, over the same stream — the bytes already read,
			// then body again, whose sticky EOF or read error ends it as
			// it always did.
			var in struct {
				Input []float32 `json:"input"`
			}
			if err := json.NewDecoder(io.MultiReader(&buf, body)).Decode(&in); err != nil {
				return nil, fmt.Errorf("serve: decode JSON body: %w", err)
			}
			if len(in.Input) != elems {
				return nil, fmt.Errorf("serve: input has %d elements, want %d (shape %s)",
					len(in.Input), elems, shape)
			}
			copy(t.Data(), in.Input)
		}
	}
	// One boundary scan via the engine's shared validator; the layers
	// below run unchecked (see snapea.FirstNonFinite on why once is
	// enough).
	if i := snapea.FirstNonFinite(t.Data()); i >= 0 {
		return nil, fmt.Errorf("serve: non-finite input at element %d", i)
	}
	return t, nil
}

// readRaw decodes a raw little-endian float32 body into dst as it is
// read, through one fixed chunk: the up to three bytes of a float that a
// read split are carried to the front of the chunk for the next read.
// It reads to the end of the body, or to its first error, and returns
// how many bytes the body held (io.EOF is not an error). Bytes past
// len(dst) floats are counted, not kept.
func readRaw(body io.Reader, dst []float32) (int64, error) {
	var chunk [1 << 10]byte
	var n int64
	d, k := 0, 0 // dst[:d] is decoded; chunk[:k] holds bytes not yet decoded
	for {
		m, err := body.Read(chunk[k:])
		n, k = n+int64(m), k+m
		i := 0
		for ; k-i >= 4 && d < len(dst); i, d = i+4, d+1 {
			dst[d] = math.Float32frombits(binary.LittleEndian.Uint32(chunk[i:]))
		}
		if d == len(dst) {
			k = 0
		} else {
			k = copy(chunk[:], chunk[i:k])
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// parseInput is the fast path of decodeInput's JSON branch. It accepts
// exactly the canonical body {"input":[n,…]} — JSON whitespace between
// tokens, every n a number in the JSON grammar that fits a float32,
// len(dst) of them, nothing but whitespace after the closing brace — and
// parses it in one pass straight into dst, where encoding/json scans
// every value twice and stores each float through reflection (30 % of a
// tinynet request's CPU, more than its Forward).
//
// On anything else it reports false and the caller decodes the same
// bytes with encoding/json, which stays the definition of the accepted
// language and of every error text: a key that is not the literal
// "input" (encoding/json folds case and unescapes), extra or duplicate
// keys, null, a wrong element count, float32 overflow, a second value.
// A false return may leave dst partly written. FuzzDecodeInput holds the
// two paths to the same verdict and the same bits.
func parseInput(raw []byte, dst []float32) bool {
	i := 0
	for _, lit := range [...]string{"{", `"input"`, ":", "["} {
		if i = expectLit(raw, i, lit); i < 0 {
			return false
		}
	}
	n := 0
	for i = skipSpace(raw, i); i < len(raw) && raw[i] != ']'; i = skipSpace(raw, i) {
		if n > 0 {
			if raw[i] != ',' {
				return false
			}
			i = skipSpace(raw, i+1)
		}
		end := scanNumber(raw, i)
		if end < 0 || n == len(dst) {
			return false
		}
		// The conversion encoding/json applies to a float32 field; its
		// only error on a well-formed number is float32 overflow.
		f, err := strconv.ParseFloat(string(raw[i:end]), 32)
		if err != nil {
			return false
		}
		dst[n] = float32(f)
		n++
		i = end
	}
	if n != len(dst) {
		return false
	}
	for _, lit := range [...]string{"]", "}"} {
		if i = expectLit(raw, i, lit); i < 0 {
			return false
		}
	}
	return skipSpace(raw, i) == len(raw)
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// expectLit skips whitespace and then lit, returning the index after it,
// or -1 if b does not continue that way.
func expectLit(b []byte, i int, lit string) int {
	i = skipSpace(b, i)
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanNumber returns the index after the JSON number that starts at
// b[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if none
// does. strconv alone would be too generous: it also takes +1, .5, 1.,
// 0x10, 1_0, Inf and NaN.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	end := digits(b, i)
	if end < 0 || (b[i] == '0' && end > i+1) {
		return -1
	}
	i = end
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = digits(b, i)
	}
	return i
}

// digits returns the index after the run of one or more decimal digits
// at b[i], or -1 if there is none.
func digits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}
