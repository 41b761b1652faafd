package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapea/internal/faults"
	"snapea/internal/integrity"
	"snapea/internal/snapea"
)

// awaitTrue polls cond until it holds or the deadline passes.
func awaitTrue(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestStartupCanaryQuarantinesCorruptCompile drives the full injected
// fault story: a one-bit weight flip during compile is caught by the
// startup canary before the model serves a single request, requests are
// shed with fast 503s, and the heal recompile (fault budget spent)
// restores bit-identical answers.
func TestStartupCanaryQuarantinesCorruptCompile(t *testing.T) {
	enableMetrics(t)
	cfg := Config{
		Models:        []string{"tinynet"},
		Faults:        faults.Config{Seed: 7, WeightBitFlip: 1, WeightFlipLimit: 1},
		ScrubInterval: -1,        // startup canary only
		CanaryEvery:   time.Hour, // canary built, no periodic ticks
	}
	s, ts := testServer(t, cfg)
	r := s.reg
	key := modelKey{Model: "tinynet", Mode: ModeExact}

	// Compile by hand (registry.get would also spawn the heal, racing the
	// quarantine assertions below).
	e := newEntry(key)
	r.mu.Lock()
	r.entries[key] = e
	r.mu.Unlock()
	r.compile(e)
	if e.err != nil {
		t.Fatalf("compile: %v", e.err)
	}
	if e.state().phase != quarantined {
		t.Fatal("startup canary did not quarantine the corrupted compile")
	}
	if reason := e.state().reason; !strings.Contains(reason, "startup canary") {
		t.Fatalf("quarantine reason %q does not name the startup canary", reason)
	}

	// Quarantined model sheds traffic: fast 503 with the marker header.
	elems := tinyElems(t)
	resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", jsonBody(t, elems, 7))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined predict status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Snapea-Quarantined") != "1" {
		t.Fatal("503 lacks X-Snapea-Quarantined: 1")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 lacks Retry-After")
	}

	// The surfaces agree: /v1/models and /readyz expose the quarantine.
	// (Preload never ran in this test; flip readiness so /readyz prints
	// the per-model status lines.)
	s.ready.Store(true)
	if !modelsQuarantined(t, ts.URL, "tinynet", ModeExact) {
		t.Fatal("/v1/models does not report quarantined:true")
	}
	if body := getBody(t, ts.URL+"/readyz"); !strings.Contains(body, "quarantined=true") {
		t.Fatalf("/readyz %q does not report quarantined=true", body)
	}

	// Heal: the injector's budget was spent by the corrupt compile, so
	// the recompile comes out clean and passes its own startup canary.
	go r.heal(e)
	awaitTrue(t, 5*time.Second, "heal to swap in a clean entry", func() bool {
		code, _, _ := postPredict(t, ts.URL, "tinynet", "", jsonBody(t, elems, 7).Bytes())
		return code == http.StatusOK
	})

	// Healed answers are bit-identical to an untainted server's.
	code, healed, _ := postPredict(t, ts.URL, "tinynet", "", jsonBody(t, elems, 7).Bytes())
	if code != http.StatusOK {
		t.Fatalf("healed predict status = %d", code)
	}
	cleanCfg := cfg
	cleanCfg.Faults = faults.Config{}
	_, cleanTS := testServer(t, cleanCfg)
	ccode, clean, _ := postPredict(t, cleanTS.URL, "tinynet", "", jsonBody(t, elems, 7).Bytes())
	if ccode != http.StatusOK {
		t.Fatalf("clean predict status = %d", ccode)
	}
	assertSameLogits(t, healed.Logits, clean.Logits)

	// The old quarantined entry was retired by the swap.
	awaitTrue(t, time.Second, "old entry retirement", func() bool {
		select {
		case <-e.stop:
			return true
		default:
			return false
		}
	})
	if body := getBody(t, ts.URL+"/readyz"); strings.Contains(body, "quarantined=true") {
		t.Fatalf("/readyz %q still reports a quarantine after the heal", body)
	}
	for _, name := range []string{"integrity.canary_runs", "integrity.canary_failures", "integrity.quarantines", "integrity.heals"} {
		if runtimeCounter(name) <= 0 {
			t.Errorf("%s = 0 after a quarantine and heal", name)
		}
	}
	assertHealthMetrics(t)
}

// TestLiveBitFlipDetectedQuarantinedHealed is the tentpole regression:
// a bit flipped in a serving model's live weight buffer is detected by
// the scrubber, the model is quarantined (only 503s from then on), the
// heal recompiles from the artifact, and no post-detection 200 ever
// carries a wrong answer.
func TestLiveBitFlipDetectedQuarantinedHealed(t *testing.T) {
	cfg := Config{
		Models: []string{"tinynet"},
		// Limit-only fault config: no compile-time corruption, but the
		// injector exists for the targeted live flip below.
		Faults:        faults.Config{Seed: 3, WeightFlipLimit: 1},
		ScrubInterval: time.Hour, // scrubber built; ticks driven by hand
		CanaryEvery:   time.Hour,
	}
	s, ts := testServer(t, cfg)
	r := s.reg
	if r.inj == nil {
		t.Fatal("limit-only fault config did not build the registry injector")
	}
	elems := tinyElems(t)
	body := jsonBody(t, elems, 7).Bytes()

	code, golden, _ := postPredict(t, ts.URL, "tinynet", "", body)
	if code != http.StatusOK {
		t.Fatalf("healthy predict status = %d", code)
	}

	e, err := r.get(context.Background(), modelKey{Model: "tinynet", Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if e.scrub == nil || e.canary == nil {
		t.Fatal("entry has no scrubber/canary")
	}
	if bad := e.scrub.Scrub(); len(bad) != 0 {
		t.Fatalf("clean scrub flagged %v", bad)
	}

	// Flip one bit in a live compiled weight buffer. No request is in
	// flight and the sentinel's tickers are hours away, so nothing reads
	// the buffer concurrently.
	w := e.net.Plans[e.net.PlanOrder[0]].KernelWeights(0)
	if idx := r.inj.FlipOneBit("test/live", w); idx < 0 {
		t.Fatal("FlipOneBit declined")
	}

	bad := e.scrub.Scrub()
	if len(bad) != 1 || !strings.Contains(bad[0], "tinynet/exact/") {
		t.Fatalf("scrub after live flip = %v, want the flipped plan region", bad)
	}

	// Quarantine without spawning the heal yet, so the shed-traffic
	// assertions cannot race the swap.
	if !e.alarm("scrub mismatch in " + bad[0]) {
		t.Fatal("entry was already quarantined")
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", jsonBody(t, elems, 7))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d during quarantine: status %d, want 503 — a corrupted model must never answer", i, resp.StatusCode)
		}
		if resp.Header.Get("X-Snapea-Quarantined") != "1" {
			t.Fatal("quarantine 503 lacks the marker header")
		}
	}
	if !modelsQuarantined(t, ts.URL, "tinynet", ModeExact) {
		t.Fatal("/v1/models does not report quarantined:true")
	}

	// Heal, then require every subsequent 200 to match the golden
	// bit-for-bit: zero wrong answers after detection.
	go r.heal(e)
	sawOK := false
	awaitTrue(t, 5*time.Second, "heal to restore service", func() bool {
		code, pr, _ := postPredict(t, ts.URL, "tinynet", "", body)
		if code == http.StatusOK {
			assertSameLogits(t, pr.Logits, golden.Logits)
			sawOK = true
		}
		return sawOK
	})
	if modelsQuarantined(t, ts.URL, "tinynet", ModeExact) {
		t.Fatal("/v1/models still reports quarantined after heal")
	}
}

// TestSentinelDetectsCorruptionWithinBound exercises the background
// path end-to-end — ticker-driven scrub, quarantine, heal swap — using
// a synthetic region whose digest is an atomic (so the test's
// "corruption" races nothing under -race), and bounds detection latency.
func TestSentinelDetectsCorruptionWithinBound(t *testing.T) {
	cfg := Config{
		Models:        []string{"tinynet"},
		ScrubInterval: 5 * time.Millisecond,
		CanaryEvery:   -1,
	}
	s, _ := testServer(t, cfg)
	r := s.reg
	key := modelKey{Model: "tinynet", Mode: ModeExact}

	var digest atomic.Uint32
	e := newEntry(key)
	e.openGate(s.pool, 1, state{}, time.Now)
	e.scrub = integrity.NewScrubber(nil, -1, []integrity.Region{{
		Name:   key.String() + "/synthetic",
		Bytes:  4,
		Digest: digest.Load,
	}})
	close(e.ready)
	r.mu.Lock()
	r.entries[key] = e
	r.mu.Unlock()
	go r.supervise(e)

	// Hammer the registry concurrently through detection and heal: the
	// cache swap must never surface an error or a torn entry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if got, err := r.get(ctx, key); err != nil && ctx.Err() == nil {
					t.Errorf("get during heal: %v", err)
					return
				} else if got != nil && got.err != nil {
					t.Errorf("get returned entry with err %v", got.err)
					return
				}
			}
		}()
	}

	corrupted := time.Now()
	digest.Store(1)
	awaitTrue(t, 2*time.Second, "sentinel to quarantine", func() bool { return e.state().phase == quarantined })
	if d := time.Since(corrupted); d > 2*time.Second {
		t.Fatalf("detection took %v, want under the 2s bound", d)
	}
	if reason := e.state().reason; !strings.Contains(reason, "scrub mismatch") {
		t.Fatalf("quarantine reason %q", reason)
	}

	// The heal must evict the quarantined entry's cached compile and
	// swap in a genuinely recompiled one.
	before := r.compiles.Load()
	awaitTrue(t, 5*time.Second, "heal swap", func() bool {
		r.mu.Lock()
		cur := r.entries[key]
		r.mu.Unlock()
		return cur != e && cur.state().phase != quarantined
	})
	if r.compiles.Load() <= before-1 {
		t.Fatal("heal did not recompile")
	}
	cancel()
	wg.Wait()

	r.mu.Lock()
	fresh := r.entries[key]
	r.mu.Unlock()
	if fresh.err != nil {
		t.Fatalf("healed entry err = %v", fresh.err)
	}
	if fresh.scrub == nil {
		t.Fatal("healed entry has no scrubber (real regions expected)")
	}
}

// TestRequireChecksumsRejectsLegacyParams pins the serve wiring of the
// artifact checksum policy.
func TestRequireChecksumsRejectsLegacyParams(t *testing.T) {
	dir := t.TempDir()
	path := tinyParams(t, dir, 0.5) // legacy: no checksums block
	elems := tinyElems(t)
	body := jsonBody(t, elems, 7).Bytes()

	cfg := Config{
		ParamsFiles:      map[string]string{"tinynet": path},
		RequireChecksums: true,
		ScrubInterval:    -1,
		CanaryEvery:      -1,
	}
	_, ts := testServer(t, cfg)
	if code, _, _ := postPredict(t, ts.URL, "tinynet", ModePredictive, body); code == http.StatusOK {
		t.Fatal("legacy params served with checksums required")
	}

	// snapea.Marshal adds the block; the same config then accepts it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapea.ParseParams(data)
	if err != nil {
		t.Fatal(err)
	}
	blessed, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blessed, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServer(t, cfg)
	if code, _, _ := postPredict(t, ts2.URL, "tinynet", ModePredictive, body); code != http.StatusOK {
		t.Fatalf("checksummed params predict status = %d", code)
	}
}

// --- helpers -------------------------------------------------------

func assertSameLogits(t *testing.T, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("logit count %d != %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("logit %d = %v, want %v bit-exact", i, got[i], want[i])
		}
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// modelsQuarantined reads /v1/models and reports the quarantined flag
// for one model/mode.
func modelsQuarantined(t *testing.T, base, model, mode string) bool {
	t.Helper()
	var body struct {
		Models []struct {
			Model       string `json:"model"`
			Mode        string `json:"mode"`
			Quarantined bool   `json:"quarantined"`
		} `json:"models"`
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/v1/models")), &body); err != nil {
		t.Fatal(err)
	}
	for _, m := range body.Models {
		if m.Model == model && m.Mode == mode {
			return m.Quarantined
		}
	}
	t.Fatalf("model %s/%s not in /v1/models", model, mode)
	return false
}
