package snapea

import (
	"math"
	"sort"
	"sync"

	"snapea/internal/nn"
	"snapea/internal/tensor"
)

// This file holds the strip execution kernel: the one body every
// convolution window of a layer runs through.
//
// A strip is a run of up to maxStripLanes windows ("lanes") whose inputs
// for any one tap sit next to each other in memory, so the kernel runs
// tap-major: for each reordered tap it streams one contiguous row of
// inputs across all lanes, the software analogue of SnaPEA's parallel PE
// lanes. Skipped work has to stay dense and streamable — the property
// Cnvlutin2 and Tetris show is what makes ineffectual-work skipping
// actually pay — so a strip runs in four phases. Dense sweeps over every
// lane go through one body (streamTaps), work on a few chosen lanes
// through one four-lane gathered body (gatherTaps):
//
//  1. the speculation prefix over every lane, then the threshold check,
//     which retires predicted-negative lanes and lists the survivors;
//  2. the positive region, unchecked (sums only grow): dense over every
//     lane, or — when the check left fewer than 2/5 of the strip live —
//     gathered over the survivors alone;
//  3. the negative suffix in blocks of suffixBlock taps (the last one
//     shorter if need be) over every lane, unchecked, while 2/5 of the
//     lanes are live; after each block a branch-free walk splits the live
//     list into survivors and exits by the sign bit pattern, and — when
//     the count is wanted — the exits are replayed four at a time from
//     their saved block-start sums to find each one's exact exit tap;
//  4. the register drain for what is left: survivors four lanes at a time
//     with a sign check after every tap.
//
// Phase 3 is sound because a negative suffix's sum is monotone: every
// product of a weight ≤ 0 and an input ≥ 0 is ≤ +0 and IEEE addition is
// monotone in each operand, so a lane's sum never rises — "negative at
// the end of the block" is "went negative inside it", and once negative
// it stays so. The replay performs the reference's own add sequence, so
// a lane's partial sums are the reference's; they run non-negative up to
// the exit tap and negative from it on, so the count of non-negative
// ones is the exit tap's offset in the block, and the replay needs no
// per-lane branch, only one for the group: it stops once all four lanes
// are negative. Both premises are checked, never assumed: negMono is
// computed after fault injection has had its way with the weight buffer,
// and Run scans its input (nonNegFinite). When either fails the kernel
// goes from phase 2 straight to phase 4, which needs neither and is the
// definition. Why replay and not a check per tap: the paper's PEs test
// the sign every cycle because the test is free in hardware; here it is
// the dearest thing in the loop (the drain runs at ~0.8–1.1 ns a MAC,
// the dense body at ~0.4), and on VGG's calibrated kernels, 18 % positive
// taps, the suffix is three quarters of all executed MACs. DESIGN.md
// "Execution kernel" has the argument in full, the sweeps and the
// per-layer tables.
//
// Two sources feed it. Interior windows of a stride-1 layer whose rows
// are long enough stream in place from the input plane (a 1x1/stride-1/
// pad-0 layer streams flat across rows: its plane already is a patch
// matrix). Every other window — the border ring, and the whole plane
// when it is strided or its interior rows are too short to be worth a
// strip — is gathered once per Run per image into a zero-padded patch
// matrix P[tap][lane] shared by all kernels, and runs over that.
//
// Bit-identity: each lane's accumulator starts at the bias and receives
// w[i]*x[i] in exactly the scalar reference's tap order — the padded
// taps of a packed window are executed as w[i]*0, exactly as the
// reference does — and every termination decision reads the same
// accumulator value, so outputs, per-window op counts, and trace totals
// are byte-identical to runReference for any geometry, mode, bias, and
// worker count. The kernel-equivalence suite (kernel_equiv_test.go)
// enforces this, on signed inputs and on their non-negative images.

// maxStripLanes bounds a strip's lane count so the per-worker scratch
// (accumulators, their block-start copy, the worklist and the exit list:
// 4 KB) stays L1-resident; longer runs of lanes are split into chunks.
const maxStripLanes = 256

// suffixBlock is how many suffix taps phase 3 streams between looks at
// the signs; suffixCrossoverNum/Den is the live share of a strip's lanes
// below which work that pays for live lanes only — the gathered positive
// region, the drain — is cheaper than a dense sweep. Measured constants,
// like windowSteps: blocks of 16 to 64 and crossovers of 1/5 to 2/5 ran
// within ±1 ms of each other on a 34 ms VGG forward.
const (
	suffixBlock        = 16
	suffixCrossoverNum = 2
	suffixCrossoverDen = 5
)

// denseWins reports whether live of a strip's lanes are enough for a sweep
// over all of them to beat work on the live ones alone.
func denseWins(live, lanes int) bool {
	return live*suffixCrossoverDen >= lanes*suffixCrossoverNum
}

// minStripLanes is the interior row span below which a plane is not
// streamed in place but packed whole: a strip pays its per-tap loop
// set-up once per row, so on the 8x8 / 4x4 / 2x2 planes of the late
// layers rows of 2-6 lanes cost more in set-up than they execute. It is
// a property of the layer geometry, fixed at compile time.
const minStripLanes = 16

// laneIota is the lane→output map of a strip whose lanes write
// consecutive outputs.
var laneIota = func() (t [maxStripLanes]int32) {
	for i := range t {
		t[i] = int32(i)
	}
	return t
}()

// laneStrip is one strip streamed in place from the input plane.
type laneStrip struct {
	in  int // lane 0's window origin, relative to the kernel's channel group
	out int // lane 0's offset in the output plane; lanes write consecutively
	n   int // lane count
}

// patchSeg is one step of the gather program: n consecutive lanes of one
// spatial tap's patch row, copied from one input row. Offsets are
// relative to a channel's patch rows and input plane; every channel runs
// the same program.
type patchSeg struct {
	dst, src, n int32
}

// stripPlan is the compile-time decomposition of one layer's output
// geometry, and the owner of the scratch its executions reuse. It
// depends on the convolution's shape only, never on weights or
// parameters, so plans recompiled for the same layer share one. Run
// executes `strips` in place and the `packed` remaining windows from the
// patch matrix.
type stripPlan struct {
	strips  []laneStrip // windows streamed in place
	packed  int         // windows run from the patch matrix: its lane count
	scatter []int32     // packed lane → offset in the output plane
	// segs gathers one channel: patch rows are KH·KW per channel, `packed`
	// lanes each, in original tap order. Positions no segment writes are
	// padding and stay zero from allocation.
	segs      []patchSeg
	segStride int // input step between a segment's lanes (StrideW)
	patchLen  int // floats in one image's patch matrix

	mu   sync.Mutex
	free []*runState
}

// runState is what one Run needs beyond its output: a trace shard and
// lane scratch per worker, and one patch matrix per image. States are
// retained on the stripPlan's free list — not a sync.Pool, which every
// GC empties — so steady-state Runs allocate none of it.
type runState struct {
	stats []traceShard
	lanes []stripScratch
	patch [][]float32
}

// traceShard is one worker's counters: the LayerTrace fields Run merges
// into the trace, and the issued-MAC total it publishes as a metric.
type traceShard struct {
	LayerTrace
	issued int64
}

// stripScratch is one worker's reusable lane state: per-lane
// accumulators, the copy of them a suffix block replays from, the
// active-lane worklist and a block's exit list. maxStripLanes entries
// each, so all four live in L1 while a strip executes.
type stripScratch struct {
	acc, saved    []float32
	active, exits []int32
}

// acquire returns a run state sized for the given worker count and
// batch, reusing a retained one when there is one.
func (sp *stripPlan) acquire(workers, batch int) *runState {
	var rs *runState
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		rs, sp.free = sp.free[n-1], sp.free[:n-1]
	}
	sp.mu.Unlock()
	if rs == nil {
		rs = &runState{}
	}
	for len(rs.lanes) < workers {
		rs.stats = append(rs.stats, traceShard{})
		rs.lanes = append(rs.lanes, stripScratch{
			acc:    make([]float32, maxStripLanes),
			saved:  make([]float32, maxStripLanes),
			active: make([]int32, maxStripLanes),
			exits:  make([]int32, maxStripLanes),
		})
	}
	if sp.packed > 0 {
		for len(rs.patch) < batch {
			rs.patch = append(rs.patch, make([]float32, sp.patchLen))
		}
	}
	return rs
}

// release returns a run state to the free list with its shards zeroed.
func (sp *stripPlan) release(rs *runState) {
	clear(rs.stats)
	sp.mu.Lock()
	sp.free = append(sp.free, rs)
	sp.mu.Unlock()
}

// planStrips computes the in-place strips and the patch-matrix layout
// for a layer geometry.
func planStrips(conv *nn.Conv2D, inShape tensor.Shape, outH, outW int) *stripPlan {
	kh, kw := conv.KH, conv.KW
	sH, sW, pH, pW := conv.StrideH, conv.StrideW, conv.PadH, conv.PadW
	sp := &stripPlan{}

	// In-place strips. [iyLo, iyHi) × [ixLo, ixHi) is the part of the
	// output they cover; it stays empty when the whole plane is packed.
	var iyLo, iyHi, ixLo, ixHi int
	if kh == 1 && kw == 1 && sH == 1 && sW == 1 && pH == 0 && pW == 0 {
		// The input plane is the patch matrix: one tap per channel, lanes
		// consecutive across row ends. Nothing to pack.
		for c := 0; c < outH*outW; c += maxStripLanes {
			sp.strips = append(sp.strips, laneStrip{in: c, out: c, n: min(maxStripLanes, outH*outW-c)})
		}
		return sp
	}
	if sW == 1 {
		// The interior: rows [oyLo, oyHi) are the ones where every kernel
		// row is in bounds, columns [oxLo, oxHi) the ones where every
		// kernel column is. The in-bounds predicates are monotone in the
		// output coordinate, so the bounds are binary-searched rather than
		// derived with sign-sensitive integer division; a degenerate
		// geometry (input smaller than the kernel overhang) leaves hi < lo
		// and with it no interior.
		oyLo := sort.Search(outH, func(oy int) bool { return oy*sH-pH >= 0 })
		oyHi := sort.Search(outH, func(oy int) bool { return oy*sH-pH+kh > inShape.H })
		oxLo := sort.Search(outW, func(ox int) bool { return ox*sW-pW >= 0 })
		oxHi := sort.Search(outW, func(ox int) bool { return ox*sW-pW+kw > inShape.W })
		if oyHi > oyLo && oxHi-oxLo >= minStripLanes {
			iyLo, iyHi, ixLo, ixHi = oyLo, oyHi, oxLo, oxHi
		}
	}
	for oy := iyLo; oy < iyHi; oy++ {
		for ox := ixLo; ox < ixHi; ox += maxStripLanes {
			sp.strips = append(sp.strips, laneStrip{
				in:  (oy*sH-pH)*inShape.W + ox - pW,
				out: oy*outW + ox,
				n:   min(maxStripLanes, ixHi-ox),
			})
		}
	}

	// Every other window is packed, in raster order: whole rows outside
	// the in-place band, the columns left and right of it inside.
	type run struct{ oy, ox, n, lane int }
	var runs []run
	pack := func(oy, ox, n int) {
		if n <= 0 {
			return
		}
		runs = append(runs, run{oy: oy, ox: ox, n: n, lane: sp.packed})
		for i := 0; i < n; i++ {
			sp.scatter = append(sp.scatter, int32(oy*outW+ox+i))
		}
		sp.packed += n
	}
	for oy := 0; oy < outH; oy++ {
		if oy >= iyLo && oy < iyHi {
			pack(oy, 0, ixLo)
			pack(oy, ixHi, outW-ixHi)
		} else {
			pack(oy, 0, outW)
		}
	}
	if sp.packed == 0 {
		return sp
	}

	// Gather program: for each spatial tap, the stretch of each run whose
	// tap lands inside the input plane.
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			lo := sort.Search(outW, func(ox int) bool { return ox*sW-pW+kx >= 0 })
			hi := sort.Search(outW, func(ox int) bool { return ox*sW-pW+kx >= inShape.W })
			row := (ky*kw + kx) * sp.packed
			for _, r := range runs {
				iy := r.oy*sH - pH + ky
				a, b := max(lo, r.ox), min(hi, r.ox+r.n)
				if iy < 0 || iy >= inShape.H || a >= b {
					continue
				}
				sp.segs = append(sp.segs, patchSeg{
					dst: int32(row + r.lane + a - r.ox),
					src: int32(iy*inShape.W + a*sW - pW + kx),
					n:   int32(b - a),
				})
			}
		}
	}
	sp.segStride = sW
	sp.patchLen = conv.InC * kh * kw * sp.packed
	return sp
}

// gather fills one image's patch matrix from its input planes, channel
// by channel. Padding positions are never written: they are zero from
// the matrix's allocation, for every Run.
func (sp *stripPlan) gather(patch, img []float32, channels int) {
	rows, plane := len(patch)/channels, len(img)/channels
	for c := 0; c < channels; c++ {
		dst, src := patch[c*rows:(c+1)*rows], img[c*plane:(c+1)*plane]
		if sp.segStride == 1 {
			for _, sg := range sp.segs {
				copy(dst[sg.dst:sg.dst+sg.n], src[sg.src:])
			}
			continue
		}
		for _, sg := range sp.segs {
			d := dst[sg.dst : sg.dst+sg.n]
			s := src[sg.src:]
			for j := range d {
				d[j] = s[j*sp.segStride]
			}
		}
	}
}

// streamTaps adds every tap of w to every lane of acc, tap-major: lane l
// receives w[i]*src[offs[i]+l]. It is the one dense body of the kernel —
// the prefix, the positive region and the suffix blocks all run through
// it. Taps go four at a time so each pass touches the accumulator once
// per four MACs; the adds stay left-associated in tap order, so the
// rounding sequence is exactly the scalar path's ( += would group the
// products first — hence the explicit a = a + ...). The operands arrive
// pre-sliced because the loop nest then has few enough live values for
// the lane index to stay in a register: inside runStrip the compiler kept
// it in memory and every lane paid a store and a reload (one VGG image,
// one worker: 35.5 → 33 ms).
func streamTaps(w []float32, offs []int, src, acc []float32) {
	offs = offs[:len(w)]
	for ; len(w) >= 4; w, offs = w[4:], offs[4:] {
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		row0 := src[offs[0]:][:len(acc)]
		row1 := src[offs[1]:][:len(acc)]
		row2 := src[offs[2]:][:len(acc)]
		row3 := src[offs[3]:][:len(acc)]
		for l, x0 := range row0 {
			acc[l] = acc[l] + w0*x0 + w1*row1[l] + w2*row2[l] + w3*row3[l]
		}
	}
	for i, wi := range w {
		for l, x := range src[offs[i]:][:len(acc)] {
			acc[l] += wi * x
		}
	}
}

// negBit is 1 when a < 0 and 0 otherwise, read off a's bit pattern so
// that no data-dependent branch decides it: a < 0 exactly when the bits
// lie in [0x80000001, 0xff800000] — sign set, not -0, not a NaN — and
// the subtraction wraps below zero exactly then.
func negBit(a float32) int {
	return int((uint64(math.Float32bits(a)-0x80000001) - 0x7f800000) >> 63)
}

// gatherTaps is the kernel's one gathered-lane body. It adds the taps of
// w to up to four lanes ls — lane l reading tap j at src[l+offs[j]] and
// starting from sums[l] — one tap at a time in tap order, the scalar
// reference's own add sequence. Fewer than four lanes are padded with
// copies of the last, which run the same adds to the same sums. It
// returns the taps it ran. Without replay it runs them all, tests
// nothing and stores each lane's sum back in sums: the sparse positive
// region, where sums only grow. With replay — a suffix block, every lane known to exit
// inside it — it returns as soon as all four sums are negative, leaves
// sums alone, and nonNeg counts, in bits 16t..16t+15, lane t's partial
// sums that were not negative.
func gatherTaps(w []float32, offs []int, src []float32, ls []int32, sums []float32, replay bool) (taps int, nonNeg uint64) {
	last := len(ls) - 1
	l0, l1, l2, l3 := ls[0], ls[min(1, last)], ls[min(2, last)], ls[min(3, last)]
	a0, a1, a2, a3 := sums[l0], sums[l1], sums[l2], sums[l3]
	b0, b1, b2, b3 := int(l0), int(l1), int(l2), int(l3)
	offs = offs[:len(w)]
	j := 0
	if !replay {
		for ; j < len(w); j++ {
			wj, o := w[j], offs[j]
			a0 += wj * src[b0+o]
			a1 += wj * src[b1+o]
			a2 += wj * src[b2+o]
			a3 += wj * src[b3+o]
		}
		sums[l0], sums[l1], sums[l2], sums[l3] = a0, a1, a2, a3
		return j, 0
	}
	// The four counts share one register (a replay runs at most
	// suffixBlock taps): four counters of their own left too few
	// registers and spilled on every tap, and the packed flags answer
	// "all four negative" with one test.
	for j < len(w) {
		wj, o := w[j], offs[j]
		a0 += wj * src[b0+o]
		a1 += wj * src[b1+o]
		a2 += wj * src[b2+o]
		a3 += wj * src[b3+o]
		neg := uint64(negBit(a0)) | uint64(negBit(a1))<<16 | uint64(negBit(a2))<<32 | uint64(negBit(a3))<<48
		flags := neg ^ 0x0001_0001_0001_0001
		nonNeg += flags
		j++
		if flags == 0 {
			break
		}
	}
	return j, nonNeg
}

// runStrip executes one strip of `lanes` windows for one kernel, reading
// tap i of lane l at src[base+offs[i]+l] and writing lane l's output to
// outd[outIdx+oidx[l]]. For an in-place strip src is the input tensor,
// offs the kernel's input-plane offsets and base lane 0's window origin;
// for a packed strip src is the image's patch matrix, offs the kernel's
// patch rows and base the strip's first lane within its group's rows.
// mono says both premises of the blocked suffix hold: the kernel's
// suffix weights are all finite and ≤ 0 (ck.negMono) and this Run's
// input is all finite and ≥ 0. count says whether the suffix exits are
// replayed to their exit taps; without it they keep the zero the fresh
// output holds and the strip's counters are incomplete.
func (p *LayerPlan) runStrip(ck *compiledKernel, offs []int, src, outd []float32, base, lanes, outIdx int, oidx []int32, mono, count bool, tr *LayerTrace, st *traceShard, sc *stripScratch, opts RunOpts) {
	w := ck.w
	nw := len(w)
	numSpec := ck.numSpec
	oidx = oidx[:lanes]
	acc := sc.acc[:lanes]
	for l := range acc {
		acc[l] = ck.bias
	}

	// Phase 1 — speculation prefix: every lane unconditionally runs all
	// numSpec taps, exactly like the scalar path.
	streamTaps(w[:numSpec], offs, src[base:], acc)

	// Retirement counters accumulate in registers and flush to the
	// per-worker trace shard once per strip, instead of read-modify-write
	// through the pointer on every retired window. issued counts the MACs
	// this strip puts through the FPU, dead lanes and replays included; a
	// gathered group's padding copies repeat a counted lane and are not.
	var specZero, signZero, totalOps, truthNeg, specTN, specFN int64
	issued := int64(lanes * numSpec)

	// Speculation-threshold check: retire predicted-negative lanes and
	// build the active worklist from the survivors.
	active := sc.active[:0]
	if numSpec > 0 {
		th := ck.th
		for l, o := range oidx {
			if acc[l] <= th {
				specZero++
				totalOps += int64(numSpec)
				outd[outIdx+int(o)] = 0
				if tr.Ops != nil {
					tr.Ops[outIdx+int(o)] = int32(numSpec)
				}
				if opts.CollectPrediction {
					// True-sign accounting walks the remaining taps in
					// scalar order for this lane only.
					full := acc[l]
					lb := base + l
					for j := numSpec; j < nw; j++ {
						full += w[j] * src[lb+offs[j]]
					}
					if full < 0 {
						truthNeg++
						specTN++
					} else {
						specFN++
					}
				}
			} else {
				active = append(active, int32(l))
			}
		}
	} else {
		active = append(active, laneIota[:lanes]...)
	}
	if len(active) == 0 {
		st.SpecZero += specZero
		st.TotalOps += totalOps
		st.issued += issued
		st.TruthNeg += truthNeg
		st.SpecTN += specTN
		st.SpecFN += specFN
		return
	}

	// Phase 2 — positive region: the per-lane sum can only grow, so no
	// checks. A retired lane's accumulator is dead (its output is already
	// stored), so while enough lanes live the body runs dense over every
	// lane: the wasted MACs on dead lanes cost less than per-lane
	// indirection on the live ones. Below the crossover the survivors run
	// alone, gathered four at a time.
	i := ck.posEnd
	if denseWins(len(active), lanes) {
		streamTaps(w[numSpec:i], offs[numSpec:], src[base:], acc)
		issued += int64(lanes * (i - numSpec))
	} else {
		for k := 0; k < len(active); k += 4 {
			gatherTaps(w[numSpec:i], offs[numSpec:], src[base:], active[k:min(k+4, len(active))], acc, false)
		}
		issued += int64(len(active) * (i - numSpec))
	}

	// Phase 3 — blocked negative suffix: a lane's sum never rises again,
	// so it ends a block negative iff it went negative inside it. The
	// block streams unchecked; one pass then splits the live list into
	// survivors (compacted in place) and exits without a branch on the
	// sign, and the exits replay from their saved sums, four at a time,
	// to the taps at which the reference retires them — when the count is
	// wanted: an uncounted run leaves them at the zero the fresh output
	// holds. Streaming every lane stops paying once too few are live; the
	// register drain takes over.
	if mono {
		saved := sc.saved[:lanes]
		exits := sc.exits
		for i < nw && denseWins(len(active), lanes) {
			blk := min(suffixBlock, nw-i)
			if count {
				copy(saved, acc)
			}
			streamTaps(w[i:i+blk], offs[i:], src[base:], acc)
			issued += int64(lanes * blk)
			live, exited := 0, 0
			for _, l := range active {
				e := negBit(acc[l])
				active[live], exits[exited] = l, l
				live += e ^ 1
				exited += e
			}
			active = active[:live]
			signZero += int64(exited)
			if opts.CollectPrediction {
				truthNeg += int64(exited)
			}
			for k := 0; count && k < exited; k += 4 {
				group := exits[k:min(k+4, exited)]
				taps, nonNeg := gatherTaps(w[i:i+blk], offs[i:], src[base:], group, saved, true)
				issued += int64(len(group) * taps)
				for _, l := range group {
					ops := i + int(nonNeg&0xffff) + 1
					nonNeg >>= 16
					totalOps += int64(ops)
					o := outIdx + int(oidx[l])
					outd[o] = 0
					if tr.Ops != nil {
						tr.Ops[o] = int32(ops)
					}
				}
			}
			i += blk
		}
	}
	// The drain issues exactly the taps it counts, from tap i on: what it
	// adds to totalOps less i per lane it starts with. The flush below
	// adds the final totalOps back.
	issued -= totalOps + int64(len(active)*i)

	// Phase 4 — register drain: the sum only shrinks, so the first sign
	// flip is final. Survivors drain four at a time with
	// register-resident accumulators sharing one tap cursor — four
	// independent add chains overlap the FP-add latency a single
	// lane-major chain stalls on. The sign check runs after every tap
	// for every live lane (one fused comparison); when a check retires
	// lanes, the survivors drop to the next narrower stage and continue
	// from the next tap, so only the last survivor of a group ever runs
	// a lone latency-bound chain. Per lane, the tap order and the
	// check-after-every-suffix-tap schedule are exactly the scalar
	// path's; a kernel with no negative suffix, and a strip whose blocks
	// ran to the last tap, fall straight through to the flush.
	var lo, llb [4]int // live lanes' output index and input base
	var la [4]float32
	var lb0, lb1, lb2, lb3 int
	var a0, a1, a2, a3 float32
	var j, n, m, g int
	for k := 0; k < len(active); k += g {
		n = min(4, len(active)-k)
		g = n
		for t := 0; t < n; t++ {
			l := int(active[k+t])
			lo[t] = outIdx + int(oidx[l])
			llb[t] = base + l
			la[t] = acc[l]
		}
		j = i
		switch n {
		case 4:
			goto quad
		case 3:
			goto triple
		case 2:
			goto pair
		default:
			goto single
		}
	quad:
		a0, a1, a2, a3 = la[0], la[1], la[2], la[3]
		lb0, lb1, lb2, lb3 = llb[0], llb[1], llb[2], llb[3]
		for ; j < nw; j++ {
			wj := w[j]
			o := offs[j]
			a0 += wj * src[lb0+o]
			a1 += wj * src[lb1+o]
			a2 += wj * src[lb2+o]
			a3 += wj * src[lb3+o]
			if a0 < 0 || a1 < 0 || a2 < 0 || a3 < 0 {
				break
			}
		}
		la[0], la[1], la[2], la[3] = a0, a1, a2, a3
		if j >= nw {
			goto flush
		}
		goto compact
	triple:
		a0, a1, a2 = la[0], la[1], la[2]
		lb0, lb1, lb2 = llb[0], llb[1], llb[2]
		for ; j < nw; j++ {
			wj := w[j]
			o := offs[j]
			a0 += wj * src[lb0+o]
			a1 += wj * src[lb1+o]
			a2 += wj * src[lb2+o]
			if a0 < 0 || a1 < 0 || a2 < 0 {
				break
			}
		}
		la[0], la[1], la[2] = a0, a1, a2
		if j >= nw {
			goto flush
		}
		goto compact
	pair:
		a0, a1 = la[0], la[1]
		lb0, lb1 = llb[0], llb[1]
		for ; j < nw; j++ {
			wj := w[j]
			o := offs[j]
			a0 += wj * src[lb0+o]
			a1 += wj * src[lb1+o]
			if a0 < 0 || a1 < 0 {
				break
			}
		}
		la[0], la[1] = a0, a1
		if j >= nw {
			goto flush
		}
		goto compact
	single:
		a0, lb0 = la[0], llb[0]
		for ; j < nw; j++ {
			a0 += w[j] * src[lb0+offs[j]]
			if a0 < 0 {
				break
			}
		}
		la[0] = a0
		if j >= nw {
			goto flush
		}
	compact:
		// Tap j retired at least one live lane; every lane checked the
		// same tap, so each negative one records ops j+1 and the
		// survivors resume together at tap j+1.
		m = 0
		for t := 0; t < n; t++ {
			if la[t] < 0 {
				signZero++
				totalOps += int64(j + 1)
				outd[lo[t]] = 0
				if tr.Ops != nil {
					tr.Ops[lo[t]] = int32(j + 1)
				}
				if opts.CollectPrediction {
					truthNeg++
				}
			} else {
				lo[m], llb[m], la[m] = lo[t], llb[t], la[t]
				m++
			}
		}
		n = m
		j++
		switch n {
		case 3:
			goto triple
		case 2:
			goto pair
		case 1:
			goto single
		}
		continue
	flush:
		// Survivors ran the full kernel; clamp a (possible) negative
		// final sum to zero, mirroring the scalar tail.
		for t := 0; t < n; t++ {
			v := la[t]
			if v < 0 {
				if opts.CollectPrediction {
					truthNeg++
				}
				v = 0
			}
			outd[lo[t]] = v
			totalOps += int64(nw)
			if tr.Ops != nil {
				tr.Ops[lo[t]] = int32(nw)
			}
		}
	}

	st.SpecZero += specZero
	st.SignZero += signZero
	st.TotalOps += totalOps
	st.issued += issued + totalOps
	st.TruthNeg += truthNeg
	st.SpecTN += specTN
	st.SpecFN += specFN
}
