// Package integrity is the corruption-detection subsystem: checksummed
// artifacts on disk, an in-memory scrubber over compiled network state,
// and canary self-tests that prove a served model still computes the
// answer it computed at load time.
//
// The threat model is silent state corruption — a flipped bit in a
// weight, threshold, or speculation order changes every prediction
// while request handling stays perfectly healthy, so none of the
// liveness-style checks (breaker, watchdog, readiness) ever fire. The
// fault injectors in internal/faults produce exactly this failure;
// this package closes the loop from artifact bytes to a served 200.
//
// Detection is layered (the "detection lattice", DESIGN.md):
//
//   - CRC32C checksums in the params artifact catch corruption at
//     rest, verified at load (internal/snapea) and offline
//     (snapea-model -verify);
//   - the Scrubber re-hashes compiled in-memory state against its
//     load-time digests on a rate-limited background cadence, catching
//     post-load mutation;
//   - the Canary replays a stored golden input/output probe through the
//     live network, catching anything the digests do not cover
//     end-to-end (and confirming scrub alarms at the output level).
//
// The package is deliberately mechanism-only: it hashes, compares, and
// reports. Policy — quarantine, self-heal, traffic draining — lives in
// internal/serve and internal/cluster. All integrity.* metrics are
// runtime metrics: scrub and canary cadence depends on wall-clock
// timers, so none of them may enter the deterministic snapshot section.
package integrity

import (
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/tensor"
)

// castagnoli is the CRC32C polynomial table. Castagnoli rather than
// IEEE because its error-detection properties for short bursts are
// better and hardware CRC32C keeps re-hashing cheap enough to scrub
// whole models on a timer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) digest of data — the
// algorithm behind every artifact checksum and in-memory scrub digest
// in the repository.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Update extends a running CRC32C digest with data, for callers hashing
// state that lives in multiple buffers.
func Update(crc uint32, data []byte) uint32 { return crc32.Update(crc, castagnoli, data) }

// ProbeData generates the deterministic canary probe input for a site:
// n values in (-1, 1) drawn from a stream keyed on (seed, site), the
// same derivation the fault injectors use. The probe is deliberately
// dense and non-zero everywhere — a flipped weight multiplied by a zero
// input contributes nothing to the output, so an all-zeros probe would
// be blind to exactly the corruption the canary exists to catch.
func ProbeData(seed uint64, site string, n int) []float32 {
	// FNV-1a over the site name, xor-folded with the seed (the
	// faults.Injector site derivation, so probes are independent of any
	// injector stream while staying reproducible).
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	r := tensor.NewRNG(h ^ (seed * 0x9E3779B97F4A7C15))
	out := make([]float32, n)
	for i := range out {
		v := float32(2*r.Float64() - 1)
		if v == 0 {
			v = 0.5
		}
		out[i] = v
	}
	return out
}

// Region is one scrubbable span of compiled state: a name for alarm
// messages, an approximate byte size for rate limiting, and a digest
// function re-hashing the live buffers.
type Region struct {
	Name   string
	Bytes  int
	Digest func() uint32
}

// Scrubber re-hashes a set of regions against digests captured at
// construction time ("load-time digests"). It owns no goroutine — the
// serving layer drives Scrub from its own timer so lifecycle (stop on
// quarantine, stop on shutdown) stays in one place. A nil *Scrubber is
// valid and scrubs nothing.
type Scrubber struct {
	labels  metrics.Labels
	mbps    float64
	regions []Region
	golden  []uint32
}

// NewScrubber captures every region's current digest as its golden
// value and returns the scrubber. mbps bounds Scrub's re-hash rate in
// megabytes per second (<= 0 means unthrottled).
func NewScrubber(labels metrics.Labels, mbps float64, regions []Region) *Scrubber {
	s := &Scrubber{labels: labels, mbps: mbps, regions: regions, golden: make([]uint32, len(regions))}
	for i, reg := range regions {
		s.golden[i] = reg.Digest()
	}
	return s
}

// Scrub re-hashes every region and returns the names of those whose
// digest no longer matches the load-time golden. The pass is
// rate-limited to the configured MB/s by sleeping between regions, so a
// large model scrubbed on a tight interval cannot starve the serving
// path of memory bandwidth.
//
//snapea:runtime
func (s *Scrubber) Scrub() []string {
	if s == nil {
		return nil
	}
	start := time.Now()
	var scanned int64
	var bad []string
	for i, reg := range s.regions {
		if got := reg.Digest(); got != s.golden[i] {
			bad = append(bad, reg.Name)
			if metrics.Enabled() {
				metrics.RC("integrity.scrub_mismatches", s.labels).Add(1)
			}
		}
		scanned += int64(reg.Bytes)
		if s.mbps > 0 {
			budget := time.Duration(float64(scanned) / (s.mbps * 1e6) * float64(time.Second))
			if ahead := budget - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	if metrics.Enabled() {
		metrics.RC("integrity.scrub_passes", s.labels).Add(1)
		metrics.RC("integrity.scrub_bytes", s.labels).Add(scanned)
	}
	return bad
}

// Canary is a stored golden input/output probe: run replays the probe
// through the live network, and Check compares the answer bit-for-bit
// against the golden captured from a known-clean compile. Exact mode is
// its own oracle; for predictive mode the golden comes from a clean
// compile of the same parameters, so legitimate speculation differences
// never trip it — only corruption does. A nil *Canary is valid and
// always passes.
type Canary struct {
	labels metrics.Labels
	golden []float32
	run    func() []float32
}

// NewCanary builds a canary over a golden output and the replay
// function producing the live network's answer to the same probe.
func NewCanary(labels metrics.Labels, golden []float32, run func() []float32) *Canary {
	return &Canary{labels: labels, golden: golden, run: run}
}

// Check replays the probe and compares against the golden, bit-exact:
// the engine is deterministic, so any divergence at all is corruption
// (or a determinism regression, which deserves the same alarm).
func (c *Canary) Check() error {
	if c == nil {
		return nil
	}
	if metrics.Enabled() {
		metrics.RC("integrity.canary_runs", c.labels).Add(1)
	}
	got := c.run()
	err := func() error {
		if len(got) != len(c.golden) {
			return fmt.Errorf("integrity: canary output has %d values, golden has %d", len(got), len(c.golden))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(c.golden[i]) {
				return fmt.Errorf("integrity: canary output diverges at element %d (%v, golden %v)",
					i, got[i], c.golden[i])
			}
		}
		return nil
	}()
	if err != nil && metrics.Enabled() {
		metrics.RC("integrity.canary_failures", c.labels).Add(1)
	}
	return err
}
