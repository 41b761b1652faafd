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
	net *snapea.Network
	// fallback is the exact-mode network a degraded predictive entry
	// serves with; an entry without one is unguarded and never audited.
	fallback *snapea.Network
	inShape  tensor.Shape // single-image input shape (N=1)
	classes  int
	err      error
	// transient marks err as retryable: the registry swaps in a fresh
	// entry on the next get instead of serving the cached failure.
	transient bool

	// The admission gate and the health (gate.go, health.go), opened on
	// a successful compile.
	pool  *tensorPool
	label metrics.Labels
	// auditEvery runs every Nth healthy predictive forward with
	// CollectPrediction so the guardrail sees exact misprediction
	// counts; <= 0 disables auditing.
	auditEvery int64
	h          health
	// seq numbers forwards: the audit cadence and the deterministic
	// serve-path fault sites both key off it.
	seq      atomic.Int64
	waiting  chan struct{}  // one token per taken waiting place
	slots    chan struct{}  // one token per taken run slot
	admitted sync.WaitGroup // requests admitted and not yet answered

	// Integrity supervision (see internal/integrity). scrub re-hashes the
	// compiled plans against load-time digests; canary replays the golden
	// probe. Either one's alarm quarantines the entry: the HTTP layer then
	// sheds this model's traffic with fast 503s while the heal loop
	// compiles a replacement from the artifact.
	scrub      *integrity.Scrubber
	canary     *integrity.Canary
	retireOnce sync.Once
}

func newEntry(key modelKey) *entry {
	return &entry{key: key, ready: make(chan struct{}), stop: make(chan struct{})}
}

// retire ends the entry's supervised life: the sentinel and any heal
// loop watching it exit, admission stops, and retire returns once every
// admitted request has its answer. Idempotent — the heal swap and
// registry shutdown may both retire the same entry.
func (e *entry) retire() {
	e.retireOnce.Do(func() {
		close(e.stop)
		if e.slots != nil {
			e.h.apply(event{kind: evRetire})
			e.admitted.Wait()
		}
	})
}

// alarm quarantines the entry and reports whether this alarm began the
// quarantine (the first reason wins).
func (e *entry) alarm(reason string) bool {
	return e.h.apply(event{kind: evAlarm, reason: reason}).err != nil
}

// state returns the entry's health state.
func (e *entry) state() state { return e.h.snapshot() }

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
	// now is every entry's health clock; tests substitute it before the
	// first compile.
	now func() time.Time
}

func newRegistry(cfg Config, pool *tensorPool) *registry {
	r := &registry{cfg: cfg, pool: pool, entries: make(map[modelKey]*entry), now: time.Now}
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
	retry := false
	if ok {
		select {
		case <-e.ready:
			retry = e.err != nil && e.transient
		default:
		}
	}
	if ok && !retry {
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
	// A miss, or a transiently failed compile to retry: install a fresh
	// slot so concurrent getters singleflight onto this attempt.
	e = newEntry(key)
	r.entries[key] = e
	r.mu.Unlock()
	if metrics.Enabled() {
		if retry {
			metrics.RC("serve.compile_retries", nil).Add(1)
		} else {
			metrics.RC("serve.compile_cache.misses", nil).Add(1)
		}
	}
	r.compile(e)
	// The installed entry's supervised life starts here, once; heal's
	// candidates are never installed here (heal owns them until the swap).
	if e.err == nil {
		go r.supervise(e)
	}
	return e.result()
}

func (e *entry) result() (*entry, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// compile builds and compiles the entry's network and opens its gate,
// whose health guards a predictive entry with an exact-mode fallback
// network when a misprediction budget is set, then closes ready.
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
		// Guarding without a fallback would be a one-way trip, so only an
		// entry with a fallback is guarded.
		if cfg.MispredictBudget > 0 {
			fe, ferr := r.get(context.Background(), modelKey{Model: e.key.Model, Mode: ModeExact})
			if ferr != nil {
				e.err = fmt.Errorf("serve: compile exact fallback for %s: %w", e.key, ferr)
				e.transient = true
				return
			}
			e.fallback = fe.net
		}
	default:
		e.err = fmt.Errorf("%w: unknown mode %q (want %s or %s)", errBadRequest, e.key.Mode, ModeExact, ModePredictive)
		return
	}
	e.inShape = m.InputShape
	e.classes = cfg.Classes // normalize defaults it to 10

	init := state{limit: max(cfg.BreakerFailures, 0)}
	if e.fallback != nil {
		init.budget = cfg.MispredictBudget
	}
	e.auditEvery = cfg.AuditEvery
	e.openGate(r.pool, cfg.QueueDepth, init, r.now)

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
		e.scrub = integrity.NewScrubber(e.label, scrubMBps, regions)
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
		replay := func(net *snapea.Network) []float32 {
			in := tensor.New(e.inShape)
			copy(in.Data(), probe)
			return append([]float32(nil), net.Forward(in, snapea.RunOpts{}, nil).Data()...)
		}
		var golden []float32
		if compileCorrupting(cfg.Faults) {
			golden = replay(snapea.CompileFaulty(m, params, cfg.NegOrder, nil))
		} else {
			golden = replay(e.net)
		}
		e.canary = integrity.NewCanary(e.label, golden, func() []float32 { return replay(e.net) })
		// Startup self-test: a model corrupted before it ever serves is
		// quarantined here, before its first request; its supervisor
		// heals it.
		if cerr := e.canary.Check(); cerr != nil {
			e.alarm(fmt.Sprintf("startup canary: %v", cerr))
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

// supervise watches an installed entry until an alarm quarantines it
// (the startup canary may already have), then heals it; the healed
// replacement is supervised in turn.
func (r *registry) supervise(e *entry) {
	if e.state().phase == quarantined || r.sentinel(e) {
		r.heal(e)
	}
}

// sentinel is one entry's background integrity watcher: it scrubs the
// compiled state and replays the canary on their configured intervals,
// and on the first alarm quarantines the entry and reports true. A
// scrub alarm is confirmed at the output level by an immediate canary
// run so the quarantine reason carries both views. It reports false
// when the entry retires or has nothing to watch.
//
//snapea:runtime
func (r *registry) sentinel(e *entry) bool {
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
		return false
	}
	for {
		select {
		case <-e.stop:
			return false
		case <-scrubC:
			if bad := e.scrub.Scrub(); len(bad) > 0 {
				reason := "scrub mismatch in " + strings.Join(bad, ", ")
				if cerr := e.canary.Check(); cerr != nil {
					reason += fmt.Sprintf("; confirmed: %v", cerr)
				}
				return e.alarm(reason)
			}
		case <-canaryC:
			if cerr := e.canary.Check(); cerr != nil {
				return e.alarm(fmt.Sprintf("canary: %v", cerr))
			}
		}
	}
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
	for {
		r.mu.Lock()
		live := !r.closed && r.entries[old.key] == old
		r.mu.Unlock()
		if !live {
			return
		}
		fresh := newEntry(old.key)
		r.compile(fresh) // closes fresh.ready itself
		if fresh.err == nil && fresh.state().phase != quarantined {
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
				metrics.RC("integrity.heals", old.label).Add(1)
				metrics.RG("integrity.quarantined", old.label).Set(0)
			}
			go r.supervise(fresh)
			return
		}
		fresh.retire()
		if metrics.Enabled() {
			metrics.RC("integrity.heal_failures", old.label).Add(1)
		}
		select {
		case <-old.stop:
			return
		case <-time.After(healBackoff):
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
