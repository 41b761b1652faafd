package snapea

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"snapea/internal/atomicfile"
	"snapea/internal/integrity"
	"snapea/internal/nn"
)

// OptCheckpoint is the resumable state of Algorithm 1. The optimizer
// records each finished unit of work — a profiled layer, a locally
// optimized layer — so an interrupted run (SIGINT, timeout) restarts
// exactly where it left off. Every pass of the optimizer is
// deterministic given the same inputs, so a resumed run produces results
// identical to an uninterrupted one — but only with the same inputs, so
// the checkpoint records a digest of them and the optimizer refuses to
// resume from one whose digest differs.
//
// The file is indented JSON: {version, network, epsilon, inputs,
// profiled: {node: [[candidates...] per kernel]}, local: {node:
// [choices...]}}.
type OptCheckpoint struct {
	Version int     `json:"version"`
	Network string  `json:"network,omitempty"`
	Epsilon float64 `json:"epsilon"`
	// Inputs is the CRC32C (hex) of everything the optimizer's result
	// depends on: the network's weights and biases, the head, the
	// optimization images and labels, and the normalized OptConfig.
	// The optimizer fills it in when it starts from an empty checkpoint.
	Inputs string `json:"inputs,omitempty"`
	// Profiled holds the kernel-profiling pass output for completed
	// nodes (the paper's ParamK).
	Profiled map[string][][]Candidate `json:"profiled,omitempty"`
	// Local holds the local-optimization pass output for completed
	// nodes (the paper's ParamL). Only meaningful once Profiled covers
	// every layer.
	Local map[string][]LayerChoice `json:"local,omitempty"`
}

// OptCheckpointVersion is the current checkpoint schema version.
const OptCheckpointVersion = 2

// NewOptCheckpoint returns an empty checkpoint for one (network, ε) run.
func NewOptCheckpoint(network string, eps float64) *OptCheckpoint {
	return &OptCheckpoint{
		Version:  OptCheckpointVersion,
		Network:  network,
		Epsilon:  eps,
		Profiled: make(map[string][][]Candidate),
		Local:    make(map[string][]LayerChoice),
	}
}

// LoadOptCheckpoint reads and validates a checkpoint file.
func LoadOptCheckpoint(path string) (*OptCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapea: load checkpoint: %w", err)
	}
	var ck OptCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("snapea: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != OptCheckpointVersion {
		return nil, fmt.Errorf("snapea: checkpoint %s has version %d, want %d", path, ck.Version, OptCheckpointVersion)
	}
	if math.IsNaN(ck.Epsilon) || math.IsInf(ck.Epsilon, 0) || ck.Epsilon < 0 {
		return nil, fmt.Errorf("snapea: checkpoint %s has invalid epsilon %v", path, ck.Epsilon)
	}
	for node, kands := range ck.Profiled {
		for k, list := range kands {
			for i, c := range list {
				if c.Param.N < 0 || c.Param.N > MaxN {
					return nil, fmt.Errorf("snapea: checkpoint %s: %s kernel %d candidate %d has N=%d out of range", path, node, k, i, c.Param.N)
				}
				if math.IsNaN(float64(c.Param.Th)) || math.IsInf(float64(c.Param.Th), 0) {
					return nil, fmt.Errorf("snapea: checkpoint %s: %s kernel %d candidate %d has non-finite Th", path, node, k, i)
				}
			}
		}
	}
	if ck.Profiled == nil {
		ck.Profiled = make(map[string][][]Candidate)
	}
	if ck.Local == nil {
		ck.Local = make(map[string][]LayerChoice)
	}
	return &ck, nil
}

// Save writes the checkpoint atomically and durably (temp file, chmod
// 0644, fsync, rename), so a crash mid-write never corrupts an existing
// checkpoint and the saved file survives power loss.
func (ck *OptCheckpoint) Save(path string) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("snapea: marshal checkpoint: %w", err)
	}
	if err := atomicfile.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("snapea: save checkpoint: %w", err)
	}
	return nil
}

// Compatible reports whether the checkpoint belongs to the given
// (network, ε) run; resuming with a mismatched checkpoint would silently
// blend two different optimizations. It is the check a tool can make
// before building anything; RunCtx also compares Inputs, which tells
// apart two runs of one (network, ε) on other weights, images or
// configuration.
func (ck *OptCheckpoint) Compatible(network string, eps float64) error {
	if ck.Network != "" && network != "" && ck.Network != network {
		return fmt.Errorf("snapea: checkpoint is for network %q, run is %q", ck.Network, network)
	}
	if ck.Epsilon != eps {
		return fmt.Errorf("snapea: checkpoint is for ε=%v, run is ε=%v", ck.Epsilon, eps)
	}
	return nil
}

// inputsDigest returns the hex CRC32C the checkpoint's Inputs field
// holds for this optimizer: the parameters of every convolution and FC
// layer of the network, the head, the optimization images and labels,
// and the normalized configuration, each length-prefixed.
func (o *Optimizer) inputsDigest() string {
	var d digest
	for _, n := range o.net.Model.Graph.Nodes() {
		switch l := n.Layer.(type) {
		case *nn.Conv2D:
			d.floats(l.Weights.Data())
			d.floats(l.Bias)
		case *nn.FC:
			d.floats(l.Weights.Data())
			d.floats(l.Bias)
		}
	}
	d.floats(o.head.Weights.Data())
	d.floats(o.head.Bias)
	for _, img := range o.images {
		d.floats(img.Data())
	}
	d.u64(uint64(len(o.labels)))
	for _, l := range o.labels {
		d.u64(uint64(l))
	}
	c := o.cfg
	d.u64(math.Float64bits(c.Epsilon))
	d.u64(uint64(len(c.NCandidates)))
	for _, n := range c.NCandidates {
		d.u64(uint64(n))
	}
	d.u64(uint64(len(c.ThQuantiles)))
	for _, q := range c.ThQuantiles {
		d.u64(math.Float64bits(q))
	}
	d.u64(uint64(c.MaxWindows))
	d.u64(uint64(c.T))
	if c.SoftLoss {
		d.u64(1)
	} else {
		d.u64(0)
	}
	return fmt.Sprintf("%08x", d.crc)
}

// digest is a running CRC32C over little-endian encoded values.
type digest struct {
	crc uint32
	buf []byte
}

func (d *digest) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], v)
	d.crc = integrity.Update(d.crc, d.buf)
}

// floats hashes a length-prefixed float32 slice by its bit patterns.
func (d *digest) floats(xs []float32) {
	d.u64(uint64(len(xs)))
	d.buf = d.buf[:0]
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, math.Float32bits(x))
	}
	d.crc = integrity.Update(d.crc, d.buf)
}
