package main

import "time"

// This file is the single declaration of what the benchmark runs and
// reports. BENCHMARK.json at the repository root is `-print-spec`'s
// output; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 12

// metric declares one reported number. README.md holds the table of
// which end-to-end metric each per-layer metric should move, on which
// workload.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each is defined in terms
// of "the workload's operation": one image through Network.Forward, one
// Algorithm-1 run, or one HTTP request.
//
// The bounds on wall-clock metrics are the widest the contract allows:
// on the shared 2-core sandbox, medians of ten runs of the same code
// moved 8% from one half-hour to the next and the run-to-run spread
// reached 12% (README.md, "Steadiness"). The sharp instruments are the
// paired ratio speedup_vs_gemm, the allocation figure and the exact
// counts, whose bounds are what their own spreads support.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "slo_ok_share", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "speedup_vs_gemm", Unit: "ratio", Better: "higher", Bound: 0.20},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "mac_reduction", Unit: "fraction", Better: "higher", Bound: 0.05},
	{Name: "sim_speedup", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "sim_energy_reduction", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "top1_agree", Unit: "fraction", Better: "higher", Bound: 0.25},
}

// perLayer lists the traced pass's metrics, grouped by the module they
// measure. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metric{
	{Name: "snapea.conv_ms_per_img", Unit: "ms", Better: "lower"},
	{Name: "snapea.conv_share", Unit: "fraction", Better: "lower"},
	{Name: "snapea.ns_per_mac_executed", Unit: "ns", Better: "lower"},
	{Name: "snapea.ns_per_mac_dense", Unit: "ns", Better: "lower"},
	{Name: "snapea.time_yield", Unit: "ratio", Better: "higher"},
	{Name: "snapea.slowest_layer_share", Unit: "fraction", Better: "lower"},
	{Name: "snapea.macs_executed", Unit: "count", Better: "lower"},
	{Name: "snapea.macs_dense", Unit: "count", Better: "lower"},
	{Name: "snapea.windows", Unit: "count", Better: "lower"},
	{Name: "snapea.sign_zero_share", Unit: "fraction", Better: "higher"},
	{Name: "snapea.spec_zero_share", Unit: "fraction", Better: "higher"},
	{Name: "snapea.tnr", Unit: "fraction", Better: "higher"},
	{Name: "snapea.fnr", Unit: "fraction", Better: "lower"},
	{Name: "snapea.acc_loss", Unit: "fraction", Better: "lower"},
	{Name: "snapea.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "snapea.opt.profile_s", Unit: "s", Better: "lower"},
	{Name: "snapea.opt.local_s", Unit: "s", Better: "lower"},
	{Name: "snapea.opt.global_s", Unit: "s", Better: "lower"},
	{Name: "snapea.opt.candidates", Unit: "count", Better: "higher"},
	{Name: "snapea.opt.global_iters", Unit: "count", Better: "lower"},
	{Name: "snapea.opt.layers_predictive", Unit: "count", Better: "higher"},
	{Name: "snapea.opt.layers_total", Unit: "count", Better: "higher"},

	{Name: "nn.gemm_conv_ms_per_img", Unit: "ms", Better: "lower"},
	{Name: "nn.ns_per_mac_gemm", Unit: "ns", Better: "lower"},
	{Name: "nn.other_ms_per_img", Unit: "ms", Better: "lower"},
	{Name: "nn.other_share", Unit: "fraction", Better: "lower"},
	{Name: "nn.graph_overhead_ms_per_img", Unit: "ms", Better: "lower"},
	{Name: "tensor.mallocs_per_img", Unit: "count", Better: "lower"},
	{Name: "parallel.workers", Unit: "count", Better: "higher"},
	{Name: "parallel.speedup_w1", Unit: "ratio", Better: "higher"},

	{Name: "models.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "calib.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "calib.neg_frac", Unit: "fraction", Better: "higher"},
	{Name: "train.head_ms", Unit: "ms", Better: "lower"},
	{Name: "train.base_acc", Unit: "fraction", Better: "higher"},

	{Name: "sim.host_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.cycles_snapea", Unit: "count", Better: "lower"},
	{Name: "sim.cycles_eyeriss", Unit: "count", Better: "lower"},
	{Name: "sim.macs", Unit: "count", Better: "lower"},

	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.batch_gt1_share", Unit: "fraction", Better: "higher"},
	{Name: "serve.infer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.infer_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_other_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.preload_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejects_429", Unit: "count", Better: "lower"},
	{Name: "serve.shed_503", Unit: "count", Better: "lower"},
	{Name: "serve.timeouts_504", Unit: "count", Better: "lower"},
	{Name: "serve.tensor_pool_hit_share", Unit: "fraction", Better: "higher"},
	{Name: "serve.audit_batches", Unit: "count", Better: "lower"},
	{Name: "serve.mac_reduction_mean", Unit: "fraction", Better: "higher"},

	{Name: "cluster.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.overhead_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "cluster.hedges_fired", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges_won", Unit: "count", Better: "higher"},
	{Name: "cluster.hedge_share", Unit: "fraction", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "resilience.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "resilience.degrade_events", Unit: "count", Better: "lower"},
	{Name: "integrity.quarantines", Unit: "count", Better: "lower"},
	{Name: "integrity.scrub_bytes", Unit: "count", Better: "lower"},
	{Name: "integrity.canary_runs", Unit: "count", Better: "lower"},

	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher"},
	{Name: "loadgen.failed", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lat_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower"},
}

// kind selects which measured phase a workload runs.
type kind int

const (
	kindForward kind = iota // batch-1 images through Network.Forward, paired with GEMM
	kindTune                // Algorithm 1 repeated from a fresh CompileExact
	kindServe               // open-loop load on one serve.Server
	kindGateway             // closed-loop load on a cluster.Gateway over two replicas
)

// sizes are a workload's dataset splits. Train/Calib/Opt feed
// build→calibrate→train head→Algorithm 1; Test is held out, drawn from
// the run's seed, and is what the measured phase runs on.
type sizes struct{ Train, Calib, Opt, Test int }

// workload declares one benchmark workload.
type workload struct {
	Name string
	Why  string
	Kind kind
	Net  string
	// Predictive runs Algorithm 1 (ε = 3%) in set-up and measures the
	// network compiled with the tuned parameters.
	Predictive bool
	Sizes      sizes
	Quick      sizes // -quick smoke sizes
	// Limit is the latency limit slo_ok_share counts an operation against:
	// about three times the operation's usual time (five times the usual
	// p90 on the open loop), so that the share reads 1 on a healthy run
	// even when a neighbour slows the sandbox by 40%, and drops when
	// operations fail, are refused or stall.
	Limit time.Duration
	// Rate is the open-loop arrival rate (kindServe), req/s.
	Rate float64
	// Pairs is how many held-out images (cycling over Test) go through
	// the network and through GEMM as a pair, whatever the window: the
	// whole kernel probe on workloads whose measured phase is not the
	// forward itself, and a floor on the forward workloads. top1_agree is
	// counted over the first min(Pairs, Test) images, so it does not
	// depend on the host's speed; predictive workloads get enough of them
	// that the binomial noise of an agreement share stays within a third
	// of its bound.
	Pairs int
	// CountImages is how many held-out images the exact-count phase
	// (MAC reduction, cycle simulation) runs with window collection on.
	CountImages int
}

var workloads = []workload{
	{
		Name:  "vgg-exact-b1",
		Why:   "Kernel-dominated: >90% of time is LayerPlan.Run on long 3x3 kernels, so it shows any kernel/strip/parallel change and is blind to serving code.",
		Kind:  kindForward,
		Net:   "vggnet",
		Sizes: sizes{Train: 20, Calib: 4, Test: 128}, Quick: sizes{Train: 10, Calib: 2, Test: 4},
		Limit:       150 * time.Millisecond,
		Pairs:       64,
		CountImages: 12,
	},
	{
		Name:       "googlenet-pred-b1",
		Why:        "Predictive path on 57 short (mostly 1x1) kernels, dominated by per-call overhead (graph executor, allocation, strip planning, fan-out): a kernel gain that costs per-call time shows here as a loss.",
		Kind:       kindForward,
		Net:        "googlenet",
		Predictive: true,
		Sizes:      sizes{Train: 30, Calib: 6, Opt: 6, Test: 512}, Quick: sizes{Train: 10, Calib: 2, Opt: 2, Test: 6},
		Limit:       45 * time.Millisecond,
		Pairs:       384,
		CountImages: 48,
	},
	{
		Name:  "squeezenet-tune",
		Why:   "Same snapea layer, opposite access pattern: Algorithm 1 recompiles and reorders repeatedly, so work moved from Run into Compile speeds the forward workloads and slows this one.",
		Kind:  kindTune,
		Net:   "squeezenet",
		Sizes: sizes{Train: 30, Calib: 6, Opt: 4, Test: 256}, Quick: sizes{Train: 10, Calib: 2, Opt: 2, Test: 4},
		Limit:       4 * time.Second,
		Pairs:       256,
		CountImages: 5,
	},
	{
		Name:       "alexnet-serve-open",
		Why:        "Forward-dominated serving with real queueing: open-loop Poisson arrivals form batches >1, so serve queue/batch/admission and batched Forward all do work and kernel gains reach request latency.",
		Kind:       kindServe,
		Net:        "alexnet",
		Predictive: true,
		Sizes:      sizes{Train: 30, Calib: 6, Opt: 8, Test: 160}, Quick: sizes{Train: 10, Calib: 2, Opt: 2, Test: 8},
		Limit:       80 * time.Millisecond,
		Rate:        20,
		Pairs:       160,
		CountImages: 24,
	},
	{
		Name:  "tinynet-gateway-closed",
		Why:   "Overhead-dominated: forward is ~0.4 ms of a ~3 ms request; batch wait, JSON, proxy hop and hedging dominate. Kernel changes must predict no change here; serve/cluster simplifications must not slow it.",
		Kind:  kindGateway,
		Net:   "tinynet",
		Sizes: sizes{Test: 64}, Quick: sizes{Test: 8},
		Limit:       15 * time.Millisecond,
		Pairs:       3000,
		CountImages: 32,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
