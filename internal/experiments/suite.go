// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is a method on Suite; the
// expensive pipeline stages (model build, calibration, head training,
// Algorithm 1, tracing, cycle simulation) are computed once per
// (network, ε) and cached, so the full set of experiments shares work
// exactly the way the paper's evaluation reuses one trained
// configuration across its figures.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"snapea/internal/calib"
	"snapea/internal/dataset"
	"snapea/internal/faults"
	"snapea/internal/models"
	"snapea/internal/parallel"
	"snapea/internal/sim"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
	"snapea/internal/train"
)

// Config sizes the experiment suite. The defaults run the whole suite on
// a laptop in minutes; raise the image counts (and Scale) to tighten the
// statistics.
type Config struct {
	Scale models.Scale
	Seed  uint64
	// Networks to evaluate; empty means the paper's four.
	Networks []string
	// Classes in the synthetic task; 0 means 10.
	Classes int
	// TrainImages / CalibImages / OptImages / TestImages size the
	// dataset splits; zeros mean 40 / 6 / 10 / 24.
	TrainImages int
	CalibImages int
	OptImages   int
	TestImages  int
	// Epsilon is the predictive-mode accuracy budget; 0 means 3%.
	Epsilon float64
	// Verbose streams optimizer progress with the suite's own.
	Verbose bool
	// Out receives the rendered tables; nil discards them (results are
	// still returned).
	Out io.Writer
	// Log receives the progress lines — pipeline stages, skips,
	// failures; nil discards them. Networks are prepared concurrently,
	// so the lines come in the schedule's order, and a caller keeps them
	// off the writer whose bytes must not depend on it.
	Log io.Writer
	// Ctx, when non-nil, aborts pipeline-stage computation on
	// cancellation or deadline: the stage accessors' Err variants return
	// the context error, and the panicking accessors propagate it as a
	// panic the Safe wrapper converts back into a Failure.
	Ctx context.Context
	// Faults is the deployment-time fault model FaultSweep scales; the
	// zero value selects the sweep's built-in baseline rates.
	Faults faults.Config
}

func (c Config) normalize() Config {
	if len(c.Networks) == 0 {
		c.Networks = models.Evaluated()
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.TrainImages == 0 {
		c.TrainImages = 40
	}
	if c.CalibImages == 0 {
		c.CalibImages = 6
	}
	if c.OptImages == 0 {
		c.OptImages = 10
	}
	if c.TestImages == 0 {
		c.TestImages = 24
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.03
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// memo is a per-key compute-once cell. The suite's maps hold one per
// cached stage key, so two experiments needing different networks
// compute concurrently while two needing the same stage share one
// computation.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

// getMemo returns (creating if needed) the cell for key. mu guards only
// the map, never the computation.
func getMemo[T any](mu *sync.Mutex, m map[string]*memo[T], key string) *memo[T] {
	mu.Lock()
	defer mu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &memo[T]{}
		m[key] = e
	}
	return e
}

// resolve runs the cell's computation once and returns its result. A
// cell whose computation was aborted by context cancellation is dropped
// from the map, so a later call (e.g. with a fresh context) retries
// instead of returning the stale cancellation.
func resolve[T any](mu *sync.Mutex, m map[string]*memo[T], key string, e *memo[T], compute func() (T, error)) (T, error) {
	e.once.Do(func() { e.val, e.err = compute() })
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		mu.Lock()
		if m[key] == e {
			delete(m, key)
		}
		mu.Unlock()
	}
	return e.val, e.err
}

// Failure records one experiment that panicked or was aborted, so a
// batch run can report partial results instead of dying on the first
// broken experiment.
type Failure struct {
	Name string
	Err  error
}

// Suite runs experiments with shared, cached pipeline results.
type Suite struct {
	Cfg Config

	mu       sync.Mutex
	prepared map[string]*memo[*Prepared]
	exact    map[string]*memo[*ExactRun]
	pred     map[string]*memo[*PredRun]

	failMu   sync.Mutex
	failures []Failure
}

// New creates a Suite.
func New(cfg Config) *Suite {
	cfg = cfg.normalize()
	// Serialize all writes so concurrent experiments never race on the
	// caller's writers (bytes.Buffer is not thread-safe).
	if cfg.Out != nil {
		cfg.Out = &lockedWriter{w: cfg.Out}
	}
	if cfg.Log != nil {
		cfg.Log = &lockedWriter{w: cfg.Log}
	}
	return &Suite{
		Cfg:      cfg,
		prepared: make(map[string]*memo[*Prepared]),
		exact:    make(map[string]*memo[*ExactRun]),
		pred:     make(map[string]*memo[*PredRun]),
	}
}

// lockedWriter serializes Write calls.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// ctx returns the configured context, or Background.
func (s *Suite) ctx() context.Context {
	if s.Cfg.Ctx != nil {
		return s.Cfg.Ctx
	}
	return context.Background()
}

func (s *Suite) logf(format string, args ...any) {
	if s.Cfg.Log != nil {
		fmt.Fprintf(s.Cfg.Log, format+"\n", args...)
	}
}

// Prewarm fans the suite's network×mode grid — the exact and predictive
// pipeline stages every Section VI experiment ultimately needs — across
// the worker pool, on top of the per-key sync.Once cache: concurrent
// units needing the same stage (both modes share one Prepared) block on
// the one computation instead of repeating it. Afterwards the
// experiments themselves run serially against warm caches, so their
// rendered tables are byte-identical to an unwarmed run; only the
// progress-log interleaving differs. Stage errors are not reported here
// — they stay cached, and the first experiment touching the failed
// stage surfaces them as a Failure exactly as before (cancelled stages
// are dropped from the cache and retried, per resolve's contract).
func (s *Suite) Prewarm() {
	nets := s.Cfg.Networks
	_ = parallel.ForCtx(s.ctx(), 2*len(nets), func(_, u int) {
		name := nets[u/2]
		if u%2 == 0 {
			_, _ = s.ExactErr(name)
		} else {
			_, _ = s.PredictiveErr(name, s.Cfg.Epsilon)
		}
	})
}

// Safe runs one experiment with panic recovery: a panicking experiment
// (bad model name, aborted stage, genuine bug) becomes a recorded
// Failure instead of killing the whole batch. It returns the failure, or
// nil on success.
func (s *Suite) Safe(name string, fn func()) (failure error) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("%v", r)
			}
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("%w\n%s", err, debug.Stack())
			}
			failure = fmt.Errorf("experiment %s: %w", name, err)
			s.failMu.Lock()
			s.failures = append(s.failures, Failure{Name: name, Err: failure})
			s.failMu.Unlock()
			s.logf("[FAILED] %s: %v", name, err)
		}
	}()
	fn()
	return nil
}

// Failures returns the experiments Safe recorded as failed, in order.
func (s *Suite) Failures() []Failure {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return append([]Failure(nil), s.failures...)
}

// Prepared is a calibrated model with a trained classifier head and its
// dataset splits — the precondition every experiment shares.
type Prepared struct {
	Model     *models.Model
	Calib     calib.Report
	OptImgs   []*tensor.Tensor
	OptLabels []int
	TestImgs  []*tensor.Tensor
	TestLbls  []int
	// BaseTestAcc is the exact-execution test accuracy of the trained
	// head (our Table I "classification accuracy").
	BaseTestAcc   float64
	BaseTestFeats [][]float32
}

// Prepared builds (or returns the cached) pipeline state for a network.
// It panics on failure; PreparedErr is the non-panicking variant.
func (s *Suite) Prepared(name string) *Prepared {
	p, err := s.PreparedErr(name)
	if err != nil {
		panic(err)
	}
	return p
}

// PreparedErr builds (or returns the cached) pipeline state for a
// network, propagating build errors and context cancellation.
func (s *Suite) PreparedErr(name string) (*Prepared, error) {
	e := getMemo(&s.mu, s.prepared, name)
	return resolve(&s.mu, s.prepared, name, e, func() (*Prepared, error) {
		return s.buildPrepared(name)
	})
}

func (s *Suite) buildPrepared(name string) (*Prepared, error) {
	if err := s.ctx().Err(); err != nil {
		return nil, err
	}
	cfg := s.Cfg
	m, err := models.Build(name, models.Options{Scale: cfg.Scale, Classes: cfg.Classes, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	total := cfg.TrainImages + cfg.CalibImages + cfg.OptImages + cfg.TestImages
	samples := dataset.Generate(total, dataset.Config{
		Classes: cfg.Classes, HW: m.InputShape.H, Seed: cfg.Seed + 1,
	})
	trainSet := samples[:cfg.TrainImages]
	calibSet := samples[cfg.TrainImages : cfg.TrainImages+cfg.CalibImages]
	optSet := samples[cfg.TrainImages+cfg.CalibImages : cfg.TrainImages+cfg.CalibImages+cfg.OptImages]
	testSet := samples[cfg.TrainImages+cfg.CalibImages+cfg.OptImages:]

	s.logf("[%s] calibrating to %.0f%% negative activations on %d images",
		name, 100*m.PaperNegFrac, len(calibSet))
	rep := calib.Calibrate(m, images(calibSet))
	if err := s.ctx().Err(); err != nil {
		return nil, err
	}

	s.logf("[%s] training head on %d images", name, len(trainSet))
	trFeats := train.Features(m, images(trainSet))
	train.TrainHead(m.Head, trFeats, labels(trainSet), train.Config{Seed: cfg.Seed, FeatureNoise: 0.05})
	if err := s.ctx().Err(); err != nil {
		return nil, err
	}

	p := &Prepared{
		Model:     m,
		Calib:     rep,
		OptImgs:   images(optSet),
		OptLabels: labels(optSet),
		TestImgs:  images(testSet),
		TestLbls:  labels(testSet),
	}
	p.BaseTestFeats = train.Features(m, p.TestImgs)
	p.BaseTestAcc = train.Accuracy(m.Head, p.BaseTestFeats, p.TestLbls)
	s.logf("[%s] base test accuracy %.3f (neg frac %.3f)", name, p.BaseTestAcc, rep.Overall)
	return p, nil
}

// Optimizer returns Algorithm 1 at ε over the prepared model and its
// optimization set, with the exact-mode network it tunes: a run leaves
// that network compiled with the chosen parameters. This is the one
// configuration a tuned model is made with — the suite's predictive
// runs and snapea-tune both start here.
func (p *Prepared) Optimizer(eps float64) (*snapea.Network, *snapea.Optimizer) {
	net := snapea.CompileExact(p.Model)
	return net, snapea.NewOptimizer(net, p.Model.Head, p.OptImgs, p.OptLabels, snapea.OptConfig{Epsilon: eps, SoftLoss: true})
}

// ExactRun is the exact-mode evaluation of one network: traced test-set
// execution plus cycle simulations of SnaPEA and the EYERISS baseline.
type ExactRun struct {
	Prep  *Prepared
	Trace *snapea.NetTrace
	Snap  *sim.Result
	Base  *sim.Result
}

// Exact traces the exact-mode network over the test set and simulates
// both machines. It panics on failure; ExactErr is the non-panicking
// variant.
func (s *Suite) Exact(name string) *ExactRun {
	r, err := s.ExactErr(name)
	if err != nil {
		panic(err)
	}
	return r
}

// ExactErr is Exact with error propagation.
func (s *Suite) ExactErr(name string) (*ExactRun, error) {
	e := getMemo(&s.mu, s.exact, name)
	return resolve(&s.mu, s.exact, name, e, func() (*ExactRun, error) {
		p, err := s.PreparedErr(name)
		if err != nil {
			return nil, err
		}
		ctx := s.ctx()
		s.logf("[%s] exact-mode trace over %d test images", name, len(p.TestImgs))
		net := snapea.CompileExact(p.Model)
		trace := snapea.NewNetTrace()
		for _, img := range p.TestImgs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			net.Forward(img, snapea.RunOpts{CollectWindows: true}, trace)
		}
		r := &ExactRun{Prep: p, Trace: trace}
		spill := sim.Spills(p.Model)
		if r.Snap, err = sim.SimulateCtx(ctx, sim.SnaPEAConfig(), sim.LoadsFromTrace(p.Model, trace, spill)); err != nil {
			return nil, err
		}
		if r.Base, err = sim.SimulateCtx(ctx, sim.EyerissConfig(), sim.LoadsDense(p.Model, len(p.TestImgs), spill)); err != nil {
			return nil, err
		}
		return r, nil
	})
}

// PredRun is the predictive-mode evaluation of one network at one ε:
// Algorithm 1's parameters, the traced test-set execution with
// prediction accounting, accuracy loss, and both cycle simulations.
type PredRun struct {
	Prep    *Prepared
	Epsilon float64
	Opt     *snapea.Result
	Net     *snapea.Network
	Trace   *snapea.NetTrace
	Snap    *sim.Result
	Base    *sim.Result
	// TestAcc is the test accuracy under predictive execution; AccLoss
	// is BaseTestAcc − TestAcc.
	TestAcc float64
	AccLoss float64
}

// Predictive runs (or returns the cached) Algorithm 1 result at ε and
// its downstream evaluation. It panics on failure; PredictiveErr is the
// non-panicking variant.
func (s *Suite) Predictive(name string, eps float64) *PredRun {
	r, err := s.PredictiveErr(name, eps)
	if err != nil {
		panic(err)
	}
	return r
}

// PredictiveErr is Predictive with error propagation.
func (s *Suite) PredictiveErr(name string, eps float64) (*PredRun, error) {
	key := fmt.Sprintf("%s@%.4f", name, eps)
	e := getMemo(&s.mu, s.pred, key)
	return resolve(&s.mu, s.pred, key, e, func() (*PredRun, error) {
		p, err := s.PreparedErr(name)
		if err != nil {
			return nil, err
		}
		ctx := s.ctx()
		s.logf("[%s] Algorithm 1 at ε=%.1f%% on %d optimization images", name, 100*eps, len(p.OptImgs))
		net, opt := p.Optimizer(eps)
		if s.Cfg.Verbose && s.Cfg.Log != nil {
			opt.SetLog(func(f string, a ...any) { s.logf("  "+f, a...) })
		}
		res, err := opt.RunCtx(ctx)
		if err != nil {
			return nil, err
		}

		trace := snapea.NewNetTrace()
		feats := make([][]float32, len(p.TestImgs))
		for i, img := range p.TestImgs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			feats[i] = net.Feature(img, snapea.RunOpts{CollectWindows: true, CollectPrediction: true}, trace)
		}
		acc := train.Accuracy(p.Model.Head, feats, p.TestLbls)
		spill := sim.Spills(p.Model)
		r := &PredRun{
			Prep: p, Epsilon: eps, Opt: res, Net: net, Trace: trace,
			TestAcc: acc,
			AccLoss: p.BaseTestAcc - acc,
		}
		if r.Snap, err = sim.SimulateCtx(ctx, sim.SnaPEAConfig(), sim.LoadsFromTrace(p.Model, trace, spill)); err != nil {
			return nil, err
		}
		if r.Base, err = sim.SimulateCtx(ctx, sim.EyerissConfig(), sim.LoadsDense(p.Model, len(p.TestImgs), spill)); err != nil {
			return nil, err
		}
		s.logf("[%s] ε=%.1f%%: %d/%d layers predictive, test loss %.3f, speedup %.2fx",
			name, 100*eps, len(res.Predictive), len(res.Params), r.AccLoss, r.Snap.Speedup(r.Base))
		return r, nil
	})
}

func images(samples []dataset.Sample) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		out[i] = samples[i].Image
	}
	return out
}

func labels(samples []dataset.Sample) []int {
	out := make([]int, len(samples))
	for i := range samples {
		out[i] = samples[i].Label
	}
	return out
}
