package snapea

import (
	"bytes"
	"testing"

	"snapea/internal/metrics"
	"snapea/internal/parallel"
)

// TestMetricSnapshotWorkerInvariance asserts the deterministic section
// of the metrics snapshot is byte-identical for every worker count: the
// engine records its counters from the merged LayerTrace (and the merged
// issued-MAC shards) after the parallel section, so the snapshot must not
// be able to observe scheduling — on the drained signed-input plan and on
// the non-negative layer whose suffix blocks make engine.macs_issued
// exceed engine.macs_executed. (The runtime section — spans,
// scratch-reuse counts — is explicitly excluded from this guarantee and
// from Export(false).)
func TestMetricSnapshotWorkerInvariance(t *testing.T) {
	plan, in := invariancePlan(t)
	suffix, suffixIn := suffixPlan(t, 8)
	opts := RunOpts{CollectWindows: true, CollectPrediction: true}
	defer parallel.SetLimit(0)
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()

	snapshot := func(workers int) []byte {
		parallel.SetLimit(workers)
		metrics.Reset()
		plan.Run(in, opts)
		suffix.Run(suffixIn, opts)
		var buf bytes.Buffer
		if err := metrics.Export(false).WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}

	ref := snapshot(1)
	if !bytes.Contains(ref, []byte("engine.macs_executed")) || !bytes.Contains(ref, []byte("engine.macs_issued")) {
		t.Fatalf("snapshot missing engine counters; instrumentation has no teeth:\n%s", ref)
	}
	if bytes.Contains(ref, []byte("runtime")) {
		t.Fatalf("deterministic snapshot leaks a runtime section:\n%s", ref)
	}
	for _, workers := range invarianceWorkerCounts() {
		if workers == 1 {
			continue
		}
		if got := snapshot(workers); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: deterministic snapshot diverges from serial run:\n got:\n%s\nwant:\n%s", workers, got, ref)
		}
	}
}
