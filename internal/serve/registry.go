package serve

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapea/internal/faults"
	"snapea/internal/integrity"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/resilience"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// Mode names the two execution modes a model can be served in.
const (
	ModeExact      = "exact"
	ModePredictive = "predictive"
)

// modelKey identifies one compiled network in the registry. The
// server-wide scale/seed/NegOrder and the per-model params file are part
// of the server configuration, so (model, mode) is the full key within
// one server.
type modelKey struct {
	Model string
	Mode  string
}

func (k modelKey) String() string { return k.Model + "/" + k.Mode }

// entry is one registry slot. The first requester compiles; everyone
// else waits on ready — singleflight-style, so a burst of cold requests
// for the same model compiles exactly once. Both success and failure are
// cached, but failures are classified: a permanent error (unknown model,
// malformed params) stays cached so a misconfigured client cannot force
// a rebuild per request, while a transient one (the params file was
// momentarily unreadable) evicts the entry so the next request retries
// the compile.
type entry struct {
	key   modelKey
	ready chan struct{}
	// stop is closed by retire: the entry's sentinel exits, and a heal
	// loop backing off on this entry abandons it.
	stop chan struct{}

	// Valid after ready is closed.
	net     *snapea.Network
	inShape tensor.Shape // single-image input shape (N=1)
	classes int
	gate    *gate
	breaker *resilience.Breaker
	guard   *resilience.Guardrail
	err     error
	// transient marks err as retryable: the registry swaps in a fresh
	// entry on the next get instead of serving the cached failure.
	transient bool

	// Integrity supervision (see internal/integrity). scrub re-hashes the
	// compiled plans against load-time digests; canary replays the golden
	// probe. quarantined flips once, when either detects corruption: the
	// HTTP layer then sheds this model's traffic with fast 503s while the
	// heal loop compiles a replacement from the artifact.
	scrub       *integrity.Scrubber
	canary      *integrity.Canary
	quarantined atomic.Bool
	quarMu      sync.Mutex
	quarReason  string
	retireOnce  sync.Once
}

func newEntry(key modelKey) *entry {
	return &entry{key: key, ready: make(chan struct{}), stop: make(chan struct{})}
}

// retire ends the entry's supervised life: the sentinel and any heal
// loop watching it exit, and its gate drains. Idempotent — the heal
// swap and registry shutdown may both retire the same entry.
func (e *entry) retire() {
	e.retireOnce.Do(func() {
		close(e.stop)
		if e.gate != nil {
			e.gate.close()
		}
	})
}

// markQuarantined flips the entry into quarantine and records why.
// Returns false when the entry was already quarantined.
func (e *entry) markQuarantined(reason string) bool {
	if !e.quarantined.CompareAndSwap(false, true) {
		return false
	}
	e.quarMu.Lock()
	e.quarReason = reason
	e.quarMu.Unlock()
	if metrics.Enabled() {
		lbl := metrics.Labels{"model": e.key.Model, "mode": e.key.Mode}
		metrics.RC("integrity.quarantines", lbl).Add(1)
		metrics.RG("integrity.quarantined", lbl).Set(1)
	}
	return true
}

func (e *entry) quarantineReason() string {
	e.quarMu.Lock()
	defer e.quarMu.Unlock()
	return e.quarReason
}

// registry lazily compiles and caches snapea.Network plans and their
// admission gates.
type registry struct {
	cfg  Config
	pool *tensorPool
	// inj is the server-wide fault injector, shared by every compile so
	// lifetime budgets (ServeLimit, WeightFlipLimit) span recompiles —
	// which is what makes self-heal meaningful under injected faults: a
	// heal recompile after the budget is spent comes out clean.
	inj *faults.Injector

	mu      sync.Mutex
	entries map[modelKey]*entry
	closed  bool

	// compiles counts actual compilations (not cache hits); the
	// singleflight tests read it.
	compiles atomic.Int64
}

func newRegistry(cfg Config, pool *tensorPool) *registry {
	r := &registry{cfg: cfg, pool: pool, entries: make(map[modelKey]*entry)}
	if cfg.Faults.Enabled() {
		r.inj = faults.New(cfg.Faults)
	}
	return r
}

// get returns the ready entry for key, compiling it on first use. It
// blocks until the compile finishes or ctx is done. A cached transient
// failure is evicted and retried here — exactly one of the callers that
// observe it becomes the new compiler (the swap happens under the lock),
// the rest wait on the fresh entry.
func (r *registry) get(ctx context.Context, key modelKey) (*entry, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrShuttingDown
	}
	e, ok := r.entries[key]
	if ok {
		select {
		case <-e.ready:
			if e.err != nil && e.transient {
				// Retry a transiently-failed compile: replace the slot so
				// concurrent getters singleflight onto the new attempt.
				e = newEntry(key)
				r.entries[key] = e
				r.mu.Unlock()
				if metrics.Enabled() {
					metrics.RC("serve.compile_retries", nil).Add(1)
				}
				r.compile(e)
				r.postCompile(e)
				return e.result()
			}
		default:
		}
		r.mu.Unlock()
		if metrics.Enabled() {
			metrics.RC("serve.compile_cache.hits", nil).Add(1)
		}
		select {
		case <-e.ready:
			return e.result()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e = newEntry(key)
	r.entries[key] = e
	r.mu.Unlock()
	if metrics.Enabled() {
		metrics.RC("serve.compile_cache.misses", nil).Add(1)
	}
	r.compile(e)
	r.postCompile(e)
	return e.result()
}

func (e *entry) result() (*entry, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// compile builds and compiles the entry's network, constructs its
// supervision (circuit breaker, and for predictive entries the accuracy
// guardrail with an exact-mode fallback network), then closes ready.
func (r *registry) compile(e *entry) {
	defer close(e.ready)
	r.compiles.Add(1)
	sp := metrics.StartSpan("serve/compile/" + e.key.String())
	defer sp.End()

	cfg := r.cfg
	m, err := models.Build(e.key.Model, models.Options{Scale: cfg.Scale, Classes: cfg.Classes, Seed: cfg.Seed})
	if err != nil {
		e.err = fmt.Errorf("%w: %v", errUnknownModel, err)
		return
	}
	// The injector is server-wide (see registry.inj) so fault budgets
	// span recompiles instead of resetting per compile.
	inj := r.inj
	var fallback *snapea.Network
	var params map[string]snapea.LayerParams
	switch e.key.Mode {
	case ModeExact:
		e.net = snapea.CompileFaulty(m, nil, cfg.NegOrder, inj)
	case ModePredictive:
		path, ok := cfg.ParamsFiles[e.key.Model]
		if !ok {
			e.err = fmt.Errorf("%w: no params file registered for model %q", errBadRequest, e.key.Model)
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			// I/O failures are transient by classification: the path is
			// registered in the server config, so an unreadable file is
			// deployment skew (params still syncing, NFS flake, permission
			// churn) that a later request may find resolved. Content
			// errors below are permanent — rereading the same bytes cannot
			// fix them.
			e.err = fmt.Errorf("serve: params %s: %w", path, err)
			e.transient = true
			return
		}
		f, err := snapea.ParseParamsChecked(data, cfg.RequireChecksums)
		if err != nil {
			e.err = err
			return
		}
		if err := f.Check(m); err != nil {
			e.err = err
			return
		}
		if metrics.Enabled() {
			if f.Checksums != nil {
				metrics.RC("integrity.artifacts_verified", nil).Add(1)
			} else {
				metrics.RC("integrity.artifacts_legacy", nil).Add(1)
			}
		}
		params = make(map[string]snapea.LayerParams, len(f.Layers))
		for node, p := range f.Layers {
			params[node] = p
		}
		e.net = snapea.CompileFaulty(m, params, cfg.NegOrder, inj)
		// The guardrail degrades this model to exact execution; compile
		// the exact sibling now so degradation never stalls on a compile.
		// Guarding without a fallback would be a one-way trip, so the
		// guardrail exists only when the fallback does.
		if cfg.MispredictBudget > 0 {
			fe, ferr := r.get(context.Background(), modelKey{Model: e.key.Model, Mode: ModeExact})
			if ferr != nil {
				e.err = fmt.Errorf("serve: compile exact fallback for %s: %w", e.key, ferr)
				e.transient = true
				return
			}
			fallback = fe.net
		}
	default:
		e.err = fmt.Errorf("%w: unknown mode %q (want %s or %s)", errBadRequest, e.key.Mode, ModeExact, ModePredictive)
		return
	}
	e.inShape = m.InputShape
	e.classes = cfg.Classes // normalize defaults it to 10

	lbl := metrics.Labels{"model": e.key.Model, "mode": e.key.Mode}
	if cfg.BreakerFailures >= 0 {
		e.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Failures: cfg.BreakerFailures,
			OpenFor:  cfg.BreakerOpenFor,
			Probes:   cfg.BreakerProbes,
			OnTransition: func(from, to resilience.State) {
				if !metrics.Enabled() {
					return
				}
				metrics.RG("serve.breaker_state", lbl).Set(int64(to))
				metrics.RC("serve.breaker_transitions", lbl).Add(1)
				if to == resilience.Open {
					metrics.RC("serve.breaker_opens", lbl).Add(1)
				}
			},
		})
	}
	if fallback != nil {
		e.guard = resilience.NewGuardrail(resilience.GuardConfig{
			Budget:     cfg.MispredictBudget,
			Window:     cfg.GuardWindow,
			MinWindows: cfg.GuardMinWindows,
			Cooldown:   cfg.GuardCooldown,
			OnChange: func(degraded bool) {
				if !metrics.Enabled() {
					return
				}
				if degraded {
					metrics.RG("serve.degraded", lbl).Set(1)
					metrics.RC("serve.degrade_events", lbl).Add(1)
				} else {
					metrics.RG("serve.degraded", lbl).Set(0)
					metrics.RC("serve.recover_events", lbl).Add(1)
				}
			},
		})
	}
	e.gate = newGate(e.net, r.pool, gateConfig{
		label:      lbl,
		site:       e.key.String(),
		queueDepth: cfg.QueueDepth,
		auditEvery: cfg.AuditEvery,
		breaker:    e.breaker,
		guard:      e.guard,
		fallback:   fallback,
	})

	// Integrity supervision. The scrubber captures load-time digests of
	// every compiled conv plan (the canary covers the rest of the network
	// end-to-end, FC head included).
	if cfg.ScrubInterval > 0 {
		regions := make([]integrity.Region, 0, len(e.net.PlanOrder))
		for _, node := range e.net.PlanOrder {
			p := e.net.Plans[node]
			regions = append(regions, integrity.Region{
				Name:   e.key.String() + "/" + node,
				Bytes:  p.StateBytes(),
				Digest: p.StateDigest,
			})
		}
		e.scrub = integrity.NewScrubber(lbl, cfg.ScrubMBps, regions)
	}
	// The canary replays a deterministic dense probe and compares outputs
	// bit-for-bit. Its golden comes from a clean twin compile when the
	// fault config corrupts compiled state (so the canary sees injected
	// corruption as corruption), and from self-capture otherwise (so it
	// detects any change since load). Activation-path faults corrupt
	// every forward — the canary's included — so those chaos configs run
	// without one, as does CanaryEvery < 0.
	if cfg.CanaryEvery >= 0 && !activationFaulty(cfg.Faults) {
		probe := integrity.ProbeData(cfg.Seed, e.key.String(), e.inShape.Elems())
		run := func() []float32 {
			in := tensor.New(e.inShape)
			copy(in.Data(), probe)
			out := e.net.Forward(in, snapea.RunOpts{}, nil)
			return append([]float32(nil), out.Data()...)
		}
		var golden []float32
		if compileCorrupting(cfg.Faults) {
			clean := snapea.CompileFaulty(m, params, cfg.NegOrder, nil)
			in := tensor.New(e.inShape)
			copy(in.Data(), probe)
			golden = append([]float32(nil), clean.Forward(in, snapea.RunOpts{}, nil).Data()...)
		} else {
			golden = run()
		}
		e.canary = integrity.NewCanary(lbl, golden, run)
		// Startup self-test: a model corrupted before it ever serves is
		// quarantined here, before its first request. postCompile spawns
		// the heal.
		if cerr := e.canary.Check(); cerr != nil {
			e.markQuarantined(fmt.Sprintf("startup canary: %v", cerr))
		}
	}
}

// compileCorrupting reports whether the fault config corrupts compiled
// plan state itself (as opposed to per-forward activation faults or
// serve-path faults).
func compileCorrupting(c faults.Config) bool {
	return c.WeightBitFlip > 0 || c.StuckZero > 0 || c.ThJitter > 0 || c.NJitter > 0
}

// activationFaulty reports per-forward activation corruption, which
// would trip a canary on every run by design.
func activationFaulty(c faults.Config) bool { return c.ActBitFlip > 0 || c.NaNRate > 0 }

// postCompile starts the compiled entry's supervised life: a sentinel
// goroutine for healthy entries, a heal loop for entries the startup
// canary already quarantined. Called exactly once per entry installed in
// the map, after compile returns (never for heal's candidate entries,
// whose lifecycle heal owns until the swap).
func (r *registry) postCompile(e *entry) {
	switch {
	case e.err != nil:
	case e.quarantined.Load():
		go r.heal(e)
	default:
		go r.sentinel(e)
	}
}

// sentinel is one entry's background integrity watcher: it scrubs the
// compiled state and replays the canary on their configured intervals,
// quarantines the entry on the first alarm, and exits. A scrub alarm is
// confirmed at the output level by an immediate canary run so the
// quarantine reason carries both views.
//
//snapea:runtime
func (r *registry) sentinel(e *entry) {
	var scrubC, canaryC <-chan time.Time
	if e.scrub != nil && r.cfg.ScrubInterval > 0 {
		t := time.NewTicker(r.cfg.ScrubInterval)
		defer t.Stop()
		scrubC = t.C
	}
	if e.canary != nil && r.cfg.CanaryEvery > 0 {
		t := time.NewTicker(r.cfg.CanaryEvery)
		defer t.Stop()
		canaryC = t.C
	}
	if scrubC == nil && canaryC == nil {
		return
	}
	for {
		select {
		case <-e.stop:
			return
		case <-scrubC:
			if bad := e.scrub.Scrub(); len(bad) > 0 {
				reason := "scrub mismatch in " + strings.Join(bad, ", ")
				if cerr := e.canary.Check(); cerr != nil {
					reason += fmt.Sprintf("; confirmed: %v", cerr)
				}
				r.quarantine(e, reason)
				return
			}
		case <-canaryC:
			if cerr := e.canary.Check(); cerr != nil {
				r.quarantine(e, fmt.Sprintf("canary: %v", cerr))
				return
			}
		}
	}
}

// quarantine flips the entry into quarantine (the HTTP layer starts
// shedding its traffic immediately) and spawns the heal loop.
func (r *registry) quarantine(e *entry, reason string) {
	if !e.markQuarantined(reason) {
		return
	}
	go r.heal(e)
}

// heal replaces a quarantined entry with a fresh compile from the
// artifact. The candidate compiles entirely off-map — requests keep
// getting fast 503s from the quarantined entry, never a slow block on
// the recompile — and is swapped in only if it comes out healthy
// (compile succeeded AND its own startup canary passed; under an
// injected fault burst the first candidates may be corrupted too, until
// the WeightFlipLimit budget runs out). The swap is identity-checked
// under the registry lock so a concurrent shutdown or entry replacement
// aborts the heal instead of resurrecting a retired slot.
//
//snapea:runtime
func (r *registry) heal(old *entry) {
	lbl := metrics.Labels{"model": old.key.Model, "mode": old.key.Mode}
	for {
		r.mu.Lock()
		live := !r.closed && r.entries[old.key] == old
		r.mu.Unlock()
		if !live {
			return
		}
		fresh := newEntry(old.key)
		r.compile(fresh) // closes fresh.ready itself
		if fresh.err == nil && !fresh.quarantined.Load() {
			r.mu.Lock()
			if r.closed || r.entries[old.key] != old {
				r.mu.Unlock()
				fresh.retire()
				return
			}
			r.entries[old.key] = fresh
			r.mu.Unlock()
			old.retire()
			if metrics.Enabled() {
				metrics.RC("integrity.heals", lbl).Add(1)
				metrics.RG("integrity.quarantined", lbl).Set(0)
			}
			go r.sentinel(fresh)
			return
		}
		fresh.retire()
		if metrics.Enabled() {
			metrics.RC("integrity.heal_failures", lbl).Add(1)
		}
		select {
		case <-old.stop:
			return
		case <-time.After(r.cfg.HealBackoff):
		}
	}
}

// list returns the successfully compiled entries, sorted by key, for
// /v1/models.
func (r *registry) list() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*entry
	for _, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				out = append(out, e)
			}
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.String() < out[j].key.String() })
	return out
}

// close stops admission on every gate and drains them. New get calls
// fail with ErrShuttingDown.
func (r *registry) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		<-e.ready
		e.retire()
	}
}
