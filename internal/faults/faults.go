// Package faults models hardware and data faults for the SnaPEA
// reproduction: soft errors (bit flips) in the accelerator's weight and
// activation SRAM buffers, stuck-at-zero kernels (dead PE lanes),
// perturbation of the speculation parameters (Th, N), and NaN/Inf
// poisoning of activations. The engine and the dense reference path run
// the same injector so their degradation curves are comparable.
//
// Injection is deterministic: every fault site is named (for example
// "w/conv1/k3" for kernel 3's weight buffer in layer conv1), and the
// stream of random draws for a site depends only on (Config.Seed, site
// name). Two runs with the same seed inject byte-identical faults no
// matter how the surrounding code is scheduled, which is what makes the
// fault-sweep experiment reproducible and its checkpoints resumable.
package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"snapea/internal/tensor"
)

// Config selects fault types and rates. All rates are probabilities per
// site element (weight, activation, or kernel); zero disables that fault
// type. The zero value disables injection entirely.
type Config struct {
	// Seed namespaces every per-site random stream.
	Seed uint64
	// WeightBitFlip is the per-weight probability that one uniformly
	// chosen bit of the float32 in the accelerator's weight buffer is
	// flipped (an SRAM soft error that persists for the whole run, since
	// weights are loaded once).
	WeightBitFlip float64
	// WeightFlipLimit caps the total number of weight-buffer bit flips
	// (rate-based and targeted) over the injector's lifetime; afterwards
	// weight buffers stay clean. This models a bounded soft-error burst
	// rather than a permanently hostile SRAM, which is what lets the
	// integrity layer's self-heal recompile a clean copy after detecting
	// the burst. Zero means unlimited. Setting the limit with a zero
	// WeightBitFlip rate still enables the injector, making the targeted
	// FlipOneBit primitive available without any rate-based corruption.
	WeightFlipLimit int64
	// ActBitFlip is the per-element probability, per layer output, that
	// one bit of an activation is flipped in the activation buffer.
	ActBitFlip float64
	// NaNRate is the per-element probability, per layer output, that an
	// activation is replaced by NaN (or +Inf for every third poisoned
	// element) — the "NaN creeping through a conv" scenario.
	NaNRate float64
	// StuckZero is the per-kernel probability that an output channel is
	// stuck at zero (dead compute lane: the kernel's windows produce 0
	// and execute no MACs).
	StuckZero float64
	// ThJitter scales a Gaussian perturbation of each speculative
	// kernel's threshold Th (models corruption of the parameter SRAM).
	ThJitter float64
	// NJitter is the per-kernel probability that a speculative kernel's
	// group count N is halved or doubled.
	NJitter float64

	// Serve-path faults, drawn once per dispatched inference batch (the
	// chaos harness for the serving subsystem; see internal/serve). A
	// batch fault is at most one of delay, panic, or error, checked in
	// that order.

	// ServeDelay is added to a faulted serving forward before any
	// compute — modeling a stalled DMA or a wedged kernel. A delay
	// longer than the server's request timeout wedges the forward and
	// exercises the watchdog.
	ServeDelay time.Duration
	// ServeDelayRate is the per-forward probability of the delay. A zero
	// rate with a positive ServeDelay means every forward (rate 1).
	ServeDelayRate float64
	// ServePanicRate is the per-forward probability that the serving
	// forward panics.
	ServePanicRate float64
	// ServeErrRate is the per-forward probability that the serving
	// forward fails with ErrInjected.
	ServeErrRate float64
	// ServeLimit caps the total number of serve-path faults injected
	// over the injector's lifetime; afterwards forwards run clean. This
	// models a transient fault storm, which is what lets a circuit
	// breaker's half-open probes eventually succeed. Zero means
	// unlimited.
	ServeLimit int64
	// ServeTarget restricts serve-path faults to serving sites containing
	// this substring (sites are named "model/mode"), so a chaos test
	// can wedge one model while another stays healthy. Empty targets
	// every site.
	ServeTarget string
}

// Enabled reports whether any fault type is active.
func (c Config) Enabled() bool {
	return c.WeightBitFlip > 0 || c.WeightFlipLimit > 0 || c.ActBitFlip > 0 || c.NaNRate > 0 ||
		c.StuckZero > 0 || c.ThJitter > 0 || c.NJitter > 0 || c.ServeEnabled()
}

// ServeEnabled reports whether any serve-path (batch-level) fault is
// active.
func (c Config) ServeEnabled() bool {
	return c.ServeDelay > 0 || c.ServePanicRate > 0 || c.ServeErrRate > 0
}

// Scale multiplies every rate by f (jitters included), for sweeping a
// base configuration across fault intensities.
func (c Config) Scale(f float64) Config {
	c.WeightBitFlip *= f
	c.ActBitFlip *= f
	c.NaNRate *= f
	c.StuckZero *= f
	c.ThJitter *= f
	c.NJitter *= f
	c.ServeDelayRate *= f
	c.ServePanicRate *= f
	c.ServeErrRate *= f
	return c
}

// Validate rejects configurations whose rates are not probabilities.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"weight-bit-flip", c.WeightBitFlip},
		{"act-bit-flip", c.ActBitFlip},
		{"nan-rate", c.NaNRate},
		{"stuck-zero", c.StuckZero},
		{"n-jitter", c.NJitter},
		{"serve-delay-rate", c.ServeDelayRate},
		{"serve-panic", c.ServePanicRate},
		{"serve-err", c.ServeErrRate},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("faults: %s rate %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.ThJitter < 0 || math.IsNaN(c.ThJitter) || math.IsInf(c.ThJitter, 0) {
		return fmt.Errorf("faults: th-jitter %v must be a finite non-negative scale", c.ThJitter)
	}
	if c.ServeDelay < 0 {
		return fmt.Errorf("faults: serve-delay %v must be non-negative", c.ServeDelay)
	}
	if c.ServeLimit < 0 {
		return fmt.Errorf("faults: serve-limit %d must be non-negative", c.ServeLimit)
	}
	if c.WeightFlipLimit < 0 {
		return fmt.Errorf("faults: weight-flip-limit %d must be non-negative", c.WeightFlipLimit)
	}
	return nil
}

// Stats counts the faults an injector has materialized. Counters are
// updated atomically, so concurrent layer executions may share one
// injector.
type Stats struct {
	WeightBits   int64
	ActBits      int64
	NaNs         int64
	StuckKernels int64
	ThPerturbed  int64
	NPerturbed   int64
	ServeDelays  int64
	ServePanics  int64
	ServeErrs    int64
}

// Total sums all fault counts.
func (s Stats) Total() int64 {
	return s.WeightBits + s.ActBits + s.NaNs + s.StuckKernels + s.ThPerturbed + s.NPerturbed +
		s.ServeDelays + s.ServePanics + s.ServeErrs
}

func (s Stats) String() string {
	return fmt.Sprintf("wbits=%d abits=%d nans=%d stuck=%d th=%d n=%d sdelay=%d spanic=%d serr=%d",
		s.WeightBits, s.ActBits, s.NaNs, s.StuckKernels, s.ThPerturbed, s.NPerturbed,
		s.ServeDelays, s.ServePanics, s.ServeErrs)
}

// Injector materializes a Config's faults at named sites. A nil *Injector
// is valid and injects nothing, so callers hold a nil pointer when faults
// are disabled and every hook is a single pointer test.
type Injector struct {
	cfg Config

	weightBits   atomic.Int64
	actBits      atomic.Int64
	nans         atomic.Int64
	stuckKernels atomic.Int64
	thPerturbed  atomic.Int64
	nPerturbed   atomic.Int64
	serveDelays  atomic.Int64
	servePanics  atomic.Int64
	serveErrs    atomic.Int64
	// serveUsed counts materialized serve-path faults against
	// Config.ServeLimit.
	serveUsed atomic.Int64
}

// New returns an injector for cfg, or nil when cfg disables every fault
// type (so `inj != nil` is the zero-cost enablement test). It panics on
// invalid rates; validate user input with Config.Validate first.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		WeightBits:   in.weightBits.Load(),
		ActBits:      in.actBits.Load(),
		NaNs:         in.nans.Load(),
		StuckKernels: in.stuckKernels.Load(),
		ThPerturbed:  in.thPerturbed.Load(),
		NPerturbed:   in.nPerturbed.Load(),
		ServeDelays:  in.serveDelays.Load(),
		ServePanics:  in.servePanics.Load(),
		ServeErrs:    in.serveErrs.Load(),
	}
}

// rng returns the deterministic stream for a site.
func (in *Injector) rng(site string) *tensor.RNG {
	// FNV-1a over the site name, xor-folded with the seed.
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return tensor.NewRNG(h ^ (in.cfg.Seed * 0x9E3779B97F4A7C15))
}

// each visits indices of [0, n) selected i.i.d. with probability p, in
// ascending order, using geometric gap sampling (O(np) draws).
func each(r *tensor.RNG, n int, p float64, visit func(i int)) {
	if p <= 0 || n == 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			visit(i)
		}
		return
	}
	logq := math.Log1p(-p)
	i := 0
	for {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		i += int(math.Log(u) / logq)
		if i >= n {
			return
		}
		visit(i)
		i++
	}
}

// weightFlipLimit resolves Config.WeightFlipLimit to an effective cap.
func (in *Injector) weightFlipLimit() int64 {
	if in.cfg.WeightFlipLimit > 0 {
		return in.cfg.WeightFlipLimit
	}
	return math.MaxInt64
}

// FlipWeightBits flips bits in a weight buffer at the configured
// WeightBitFlip rate, subject to the lifetime WeightFlipLimit budget,
// and returns the number of flips. The site should name the buffer
// uniquely (layer and kernel). The random stream is consumed
// identically whether or not the budget admits a flip, so exhausting
// the budget never perturbs later sites' draws.
func (in *Injector) FlipWeightBits(site string, w []float32) int {
	if in == nil || in.cfg.WeightBitFlip <= 0 {
		return 0
	}
	lim := in.weightFlipLimit()
	r := in.rng("wb/" + site)
	flips := 0
	each(r, len(w), in.cfg.WeightBitFlip, func(i int) {
		bit := uint(r.Intn(32))
		if in.weightBits.Add(1) > lim {
			// Lost the race for the last budgeted flip: run clean.
			in.weightBits.Add(-1)
			return
		}
		w[i] = flipBit(w[i], bit)
		flips++
	})
	return flips
}

// FlipOneBit flips one uniformly chosen bit of one uniformly chosen
// element of w — a single targeted soft error, the live-corruption
// primitive the integrity lifecycle tests and smoke drive against a
// serving model's compiled weight buffers. The flip counts against the
// WeightFlipLimit budget like any rate-based flip. Returns the flipped
// index, or -1 when nothing was flipped (nil injector, empty buffer, or
// exhausted budget).
func (in *Injector) FlipOneBit(site string, w []float32) int {
	if in == nil || len(w) == 0 {
		return -1
	}
	r := in.rng("flip1/" + site)
	i := r.Intn(len(w))
	bit := uint(r.Intn(32))
	if in.weightBits.Add(1) > in.weightFlipLimit() {
		in.weightBits.Add(-1)
		return -1
	}
	w[i] = flipBit(w[i], bit)
	return i
}

// CorruptActivations applies activation bit flips and NaN/Inf poisoning
// in place and returns the number of corrupted elements. Callers name
// the site per layer invocation (for example "conv1#7" for the 7th
// image) so repeated layer executions draw fresh faults deterministically.
func (in *Injector) CorruptActivations(site string, a []float32) int {
	if in == nil || (in.cfg.ActBitFlip <= 0 && in.cfg.NaNRate <= 0) {
		return 0
	}
	n := 0
	if in.cfg.ActBitFlip > 0 {
		r := in.rng("ab/" + site)
		flips := 0
		each(r, len(a), in.cfg.ActBitFlip, func(i int) {
			a[i] = flipBit(a[i], uint(r.Intn(32)))
			flips++
		})
		in.actBits.Add(int64(flips))
		n += flips
	}
	if in.cfg.NaNRate > 0 {
		r := in.rng("nan/" + site)
		poisons := 0
		each(r, len(a), in.cfg.NaNRate, func(i int) {
			if poisons%3 == 2 {
				a[i] = float32(math.Inf(1))
			} else {
				a[i] = float32(math.NaN())
			}
			poisons++
		})
		in.nans.Add(int64(poisons))
		n += poisons
	}
	return n
}

// StuckKernels returns the output channels of a layer stuck at zero, at
// the configured per-kernel rate.
func (in *Injector) StuckKernels(site string, outC int) []int {
	if in == nil || in.cfg.StuckZero <= 0 {
		return nil
	}
	r := in.rng("stuck/" + site)
	var stuck []int
	each(r, outC, in.cfg.StuckZero, func(k int) {
		stuck = append(stuck, k)
	})
	in.stuckKernels.Add(int64(len(stuck)))
	return stuck
}

// JitterTh perturbs a speculation threshold: Th + N(0,1)·ThJitter·(|Th|+ε).
// Returns th unchanged when threshold jitter is disabled.
func (in *Injector) JitterTh(site string, k int, th float32) float32 {
	if in == nil || in.cfg.ThJitter <= 0 {
		return th
	}
	r := in.rng(fmt.Sprintf("th/%s/%d", site, k))
	d := r.Norm() * in.cfg.ThJitter * (math.Abs(float64(th)) + 1e-3)
	if d == 0 {
		return th
	}
	in.thPerturbed.Add(1)
	return th + float32(d)
}

// JitterN perturbs a speculative kernel's group count: with probability
// NJitter the count is halved or doubled (never below 1).
func (in *Injector) JitterN(site string, k, n int) int {
	if in == nil || in.cfg.NJitter <= 0 || n <= 0 {
		return n
	}
	r := in.rng(fmt.Sprintf("n/%s/%d", site, k))
	if r.Float64() >= in.cfg.NJitter {
		return n
	}
	in.nPerturbed.Add(1)
	if r.Intn(2) == 0 {
		if n/2 < 1 {
			return 1
		}
		return n / 2
	}
	return n * 2
}

// flipBit flips one bit of a float32's IEEE-754 representation.
func flipBit(v float32, bit uint) float32 {
	return math.Float32frombits(math.Float32bits(v) ^ (1 << (bit & 31)))
}

// ErrInjected is the failure a serve-path error fault produces. The
// serving layer treats it like any other failed forward; tests and the
// chaos harness can errors.Is it apart from organic failures.
var ErrInjected = errors.New("faults: injected batch error")

// BatchFault is the serve-path fault decision for one serving forward (a
// batch of one): at most one of Delay, Panic, or Err is set.
type BatchFault struct {
	Delay time.Duration
	Panic bool
	Err   error
}

// Any reports whether the forward is faulted at all.
func (f BatchFault) Any() bool { return f.Delay > 0 || f.Panic || f.Err != nil }

// BatchFault draws the serve-path fault for one forward. site names the
// execution unit ("model/mode") and seq numbers the forward within it, so
// the decision stream is deterministic per (seed, site) and independent
// of scheduling, like every other injector site. Faults are checked in
// delay → panic → error order; the first hit wins and counts against
// ServeLimit.
func (in *Injector) BatchFault(site string, seq int64) BatchFault {
	if in == nil || !in.cfg.ServeEnabled() {
		return BatchFault{}
	}
	if in.cfg.ServeTarget != "" && !strings.Contains(site, in.cfg.ServeTarget) {
		return BatchFault{}
	}
	if lim := in.cfg.ServeLimit; lim > 0 && in.serveUsed.Load() >= lim {
		return BatchFault{}
	}
	r := in.rng(fmt.Sprintf("serve/%s#%d", site, seq))
	var f BatchFault
	switch {
	case in.cfg.ServeDelay > 0 && (in.cfg.ServeDelayRate <= 0 || r.Float64() < in.cfg.ServeDelayRate):
		// A zero ServeDelayRate with a positive delay means "every
		// batch" — the wedged-model chaos configuration.
		f.Delay = in.cfg.ServeDelay
	case in.cfg.ServePanicRate > 0 && r.Float64() < in.cfg.ServePanicRate:
		f.Panic = true
	case in.cfg.ServeErrRate > 0 && r.Float64() < in.cfg.ServeErrRate:
		f.Err = ErrInjected
	default:
		return BatchFault{}
	}
	if lim := in.cfg.ServeLimit; lim > 0 && in.serveUsed.Add(1) > lim {
		// Lost the race for the last budgeted fault: run clean.
		return BatchFault{}
	}
	switch {
	case f.Delay > 0:
		in.serveDelays.Add(1)
	case f.Panic:
		in.servePanics.Add(1)
	default:
		in.serveErrs.Add(1)
	}
	return f
}
