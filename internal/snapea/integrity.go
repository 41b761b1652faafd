package snapea

import (
	"encoding/binary"
	"math"

	"snapea/internal/integrity"
)

// In-memory integrity accessors: the serving tier's scrubber
// (internal/integrity) re-hashes each compiled plan's speculation state
// against a digest captured at load time, catching the silent
// corruption — a flipped weight, threshold, or reorder boundary — that
// changes every prediction while request handling stays healthy.

// StateBytes approximates the size of the plan's scrub-covered state in
// bytes, the scrubber's rate-limit accounting unit: the reordered
// weight buffer plus the per-kernel speculation scalars.
func (p *LayerPlan) StateBytes() int {
	n := 0
	for k := range p.kernels {
		n += 4*len(p.kernels[k].w) + 24
	}
	return n
}

// StateDigest returns the CRC32C of the plan's compiled speculation
// state: every kernel's reordered weights, threshold, bias, speculation
// boundaries, and stuck flag, in kernel order. Each kernel has exactly
// one weight buffer — every window, border or interior, in place or
// packed, reads KernelWeights(k) — so the digest covers every weight an
// execution can touch. Byte-identical state digests identically, so a
// digest mismatch against the load-time value is proof of in-memory
// corruption.
func (p *LayerPlan) StateDigest() uint32 {
	var b [24]byte
	crc := uint32(0)
	buf := make([]byte, 0, 4096)
	for k := range p.kernels {
		ck := &p.kernels[k]
		buf = buf[:0]
		for _, w := range ck.w {
			var f [4]byte
			binary.LittleEndian.PutUint32(f[:], math.Float32bits(w))
			buf = append(buf, f[:]...)
		}
		crc = integrity.Update(crc, buf)
		binary.LittleEndian.PutUint32(b[0:], math.Float32bits(ck.th))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(ck.bias))
		binary.LittleEndian.PutUint64(b[8:], uint64(ck.numSpec))
		binary.LittleEndian.PutUint64(b[16:], uint64(ck.posEnd))
		crc = integrity.Update(crc, b[:])
		if ck.stuck {
			crc = integrity.Update(crc, []byte{1})
		} else {
			crc = integrity.Update(crc, []byte{0})
		}
	}
	return crc
}

// KernelWeights returns kernel k's live compiled weight buffer — the
// accelerator's "SRAM copy" of the reordered weights. Mutating it
// models an in-memory soft error; the scrubber and canary exist to
// catch exactly that, and the integrity tests flip bits here through
// faults.Injector.FlipOneBit. Not for use on the serving hot path.
func (p *LayerPlan) KernelWeights(k int) []float32 { return p.kernels[k].w }
