package serve

import "strconv"

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
