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
	return 4*len(p.tables.w) + 24*len(p.kernels)
}

// StateDigest returns the CRC32C of the plan's compiled speculation
// state: the weight arena, which holds every kernel's reordered weights
// back to back in kernel order, then every kernel's threshold, bias,
// speculation boundaries and stuck flag. Every window, border or
// interior, in place or packed, reads its kernel's weights from the
// arena (KernelWeights(k) is kernel k's window of it), so the digest
// covers every weight an execution can touch. Byte-identical state
// digests identically, so a digest mismatch against the load-time value
// is proof of in-memory corruption.
func (p *LayerPlan) StateDigest() uint32 {
	var buf [4096]byte
	crc := uint32(0)
	for w := p.tables.w; len(w) > 0; w = w[min(len(w), len(buf)/4):] {
		b := buf[:0]
		for _, v := range w[:min(len(w), len(buf)/4)] {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		crc = integrity.Update(crc, b)
	}
	for k := range p.kernels {
		ck := &p.kernels[k]
		b := binary.LittleEndian.AppendUint32(buf[:0], math.Float32bits(ck.th))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(ck.bias))
		b = binary.LittleEndian.AppendUint64(b, uint64(ck.numSpec))
		b = binary.LittleEndian.AppendUint64(b, uint64(ck.posEnd))
		if ck.stuck {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		crc = integrity.Update(crc, b)
	}
	return crc
}

// KernelWeights returns kernel k's live compiled weight buffer — the
// accelerator's "SRAM copy" of the reordered weights. Mutating it
// models an in-memory soft error; the scrubber and canary exist to
// catch exactly that, and the integrity tests flip bits here through
// faults.Injector.FlipOneBit. Not for use on the serving hot path.
func (p *LayerPlan) KernelWeights(k int) []float32 { return p.kernels[k].w }
