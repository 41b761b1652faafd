package main

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"time"

	"snapea/internal/metrics"
	"snapea/internal/snapea"
)

// options selects one run.
type options struct {
	Workload *workload
	Seed     uint64
	Seconds  float64
	// Traced selects the traced pass (per-layer metrics) over the timed
	// pass (end-to-end metrics, tracing and metrics collection off).
	Traced bool
	// Quick shrinks the dataset splits for the smoke tests.
	Quick bool
}

// traceFile is what -trace-out writes: the run's spans and the per-node
// table the per-layer aggregates summarise.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Env      envStamp    `json:"env"`
	Nodes    []*nodeStat `json:"nodes"`
	Spans    []span      `json:"spans"`
}

// run sets the workload up, measures it for o.Seconds, checks its
// outputs and returns the pass's metrics.
func run(ctx context.Context, o options) (*runResult, *traceFile, error) {
	w := o.Workload
	r := &runResult{
		Workload: w.Name, Seed: o.Seed, Seconds: o.Seconds, Traced: o.Traced,
		Env: stampEnv(), Metrics: make(map[string]value),
	}
	sz, repeats := w.Sizes, setupRepeats
	if o.Quick {
		sz = w.Quick
	}
	if o.Quick || o.Traced {
		repeats = 1
	}
	if o.Traced {
		// The program's own spans and counters (tune/* spans, opt.*,
		// serve.*, gateway.*, integrity.*) are part of the traced pass.
		metrics.Reset()
		metrics.Enable()
		defer metrics.Disable()
	}

	p, setupS, err := setUp(ctx, w, sz, o.Seed, repeats)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()
	window := time.Duration(o.Seconds * float64(time.Second))
	tr := newTracer()

	if !o.Traced {
		r.set("setup_s", setupS, repeats)
	} else {
		reportSetup(r, p)
	}

	// net is the network whose forward the kernel probe and the count
	// phase look at; data the images they use.
	net, data := p.Net, p.Test
	var nodes *nodeTrace
	// timed holds output digests produced with window collection off, by
	// index into p.Test, for the count phase to compare against.
	var timed map[int]uint32
	// artifact is the params file whose compiled network the probe and
	// the count phase look at, when that is not p.Net.
	var artifact *snapea.ParamsFile
	switch w.Kind {
	case kindForward:
		if o.Traced {
			metrics.Disable() // the node spans below are the harness's own
			nodes = kernelProbe(r, tr, net, data.Images, !w.Predictive, window, 4)
		} else {
			timed = measureForward(r, w, p, window)
		}
	case kindTune:
		res, err := measureTune(ctx, r, w, p, window)
		if err != nil {
			return nil, nil, err
		}
		artifact = res.File(w.Net, epsilon)
		data = p.Opt // "final params on the optimization set"
	case kindServe, kindGateway:
		// What the registry serves: an uncalibrated model, so on the
		// predictive workload tuned parameters meet weights they were
		// not tuned for. Every 200 is checked bit for bit against this
		// network and its MAC reduction recorded as
		// serve.mac_reduction_mean rather than "fixed"; the probe and the
		// count phase look at the tuned artifact on the model it was
		// tuned for. Exact serving has no artifact: its network is the
		// registry's.
		if net, err = referenceNet(w, p); err != nil {
			return nil, nil, err
		}
		measureLoad(ctx, r, tr, w, p, net, window, o.Seed)
		artifact = p.Params
	}
	metrics.Disable()
	if artifact != nil {
		settleHeap()
		if net, err = snapea.CompileParams(p.Model, artifact, snapea.NegByMagnitude); err != nil {
			return nil, nil, err
		}
	}

	exact := !w.Predictive && w.Kind != kindTune
	if w.Kind != kindForward {
		// The other workloads spend their window elsewhere; a short
		// fixed-size probe still puts their network's forward next to
		// GEMM on the same shapes.
		pairs := w.Pairs
		if o.Quick {
			pairs = len(p.Test.Images)
		}
		if o.Traced {
			nodes = kernelProbe(r, tr, net, p.Test.Images, exact, 0, min(pairs, 32))
		} else {
			pt := runPairs(net, p.Test.Images, exact, upTo(pairs))
			r.Failed += pt.Failed
			r.set("speedup_vs_gemm", pt.speedup(), len(pt.SnapeaMS))
			r.set("top1_agree", pt.agreement(min(pairs, len(p.Test.Images))), 0)
			if w.Kind != kindTune { // the tune workload counts on p.Opt
				timed = pt.Digests
			}
		}
	}

	if n := w.CountImages; n < len(data.Images) {
		data = split{Images: data.Images[:n], Labels: data.Labels[:n]}
	}
	c, err := countPhase(ctx, net, data, exact)
	if err != nil {
		return nil, nil, err
	}
	checkDigests(r, c, timed)
	reportCounts(r, c, w.Kind != kindGateway) // the gateway's registry model has no trained head

	r.finish()
	tf := &traceFile{Workload: w.Name, Seed: o.Seed, Env: r.Env, Spans: tr.spans}
	if nodes != nil {
		tf.Nodes = nodes.Nodes
	}
	return r, tf, nil
}

// setLatency reports the operation metrics every workload shares. opMS
// holds one entry per completed operation in time order; okWithin
// counts operations that were correct and within the workload's limit,
// attempted everything that was tried. The tail is p90 — the highest
// percentile with ten samples beyond it on every workload but the tune
// one — taken per consecutive stretch of the run, median of the
// stretches (see overBlocks); p95 and p99 of the serving workloads are
// per-layer diagnostics.
func setLatency(r *runResult, opMS []float64, opsPerS float64, okWithin, attempted int) {
	n := len(opMS)
	r.set("lat_p50_ms", median(opMS), n)
	r.set("lat_p90_ms", overBlocks(opMS, func(b []float64) float64 { return percentile(b, 90) }), n)
	r.set("ops_per_s", opsPerS, n)
	r.set("slo_ok_share", float64(okWithin)/float64(attempted), attempted)
}

// busyRate is operations per second of the time spent inside them, for
// the offline workloads: per stretch of the run, median over stretches.
func busyRate(opMS []float64) float64 {
	return overBlocks(opMS, func(b []float64) float64 { return 1e3 / mean(b) })
}

// measureForward is the timed pass of the two forward workloads: paired
// batch-1 images until the window ends.
func measureForward(r *runResult, w *workload, p *prepared, window time.Duration) map[int]uint32 {
	exact := !w.Predictive
	pairs := min(w.Pairs, len(p.Test.Images))
	pt := runPairs(p.Net, p.Test.Images, exact, until(time.Now().Add(window), pairs))
	r.set("top1_agree", pt.agreement(pairs), 0)
	n := len(pt.SnapeaMS)
	r.Attempted += n
	r.Failed += pt.Failed
	within := 0
	for _, t := range pt.SnapeaMS {
		if t <= ms(w.Limit) {
			within++
		}
	}
	setLatency(r, pt.SnapeaMS, busyRate(pt.SnapeaMS), within-pt.Failed, n)
	r.set("speedup_vs_gemm", pt.speedup(), n)

	k := min(8, len(p.Test.Images))
	heap, _ := allocPerOp(k, func(i int) { p.Net.Forward(p.Test.Images[i], snapea.RunOpts{}, nil) })
	r.set("alloc_mb_per_op", heap/1e6, k)

	return pt.Digests
}

// measureTune repeats Algorithm 1 from a fresh exact compile until the
// window ends, and returns the last run's result. One operation is
// CompileExact + NewOptimizer + RunCtx, so work moved between compile and
// run cannot hide.
func measureTune(ctx context.Context, r *runResult, w *workload, p *prepared, window time.Duration) (*snapea.Result, error) {
	var opMS, allocMB []float64
	var first []byte
	var last *snapea.Result
	within := 0
	deadline := time.Now().Add(window)
	for len(opMS) < 3 || time.Now().Before(deadline) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		res, err := tune(ctx, p)
		dt := time.Since(t)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		r.Attempted++
		last = res
		opMS = append(opMS, ms(dt))
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)

		// Algorithm 1 is deterministic: every repetition must produce a
		// byte-identical params artifact.
		data, err := res.File(w.Net, epsilon).Marshal()
		if err != nil {
			return nil, err
		}
		switch {
		case first == nil:
			first = data
		case !bytes.Equal(first, data):
			r.Failed++
			continue
		}
		if dt <= w.Limit {
			within++
		}
	}
	if r.Traced {
		reportOpt(r, last, len(opMS))
		return last, nil
	}
	setLatency(r, opMS, busyRate(opMS), within, len(opMS))
	r.set("alloc_mb_per_op", median(allocMB), len(allocMB))
	return last, nil
}

// reportSetup sets the set-up pipeline's per-module times (traced pass).
func reportSetup(r *runResult, p *prepared) {
	st := p.Stages
	r.set("models.build_ms", ms(st.Build), 1)
	r.set("dataset.generate_ms", ms(st.Generate), 1)
	r.set("calib.calibrate_ms", ms(st.Calibrate), 1)
	r.set("calib.neg_frac", p.NegFrac, 0)
	r.set("train.head_ms", ms(st.Head), 1)
	r.set("snapea.compile_ms", ms(st.Compile), 1)
	r.set("serve.preload_ms", ms(st.Preload), 1)
	if p.OptResult != nil {
		reportOpt(r, p.OptResult, 1)
	}
}

// reportOpt reads Algorithm 1's own spans and counters from the
// metrics registry, averaged over the runs recorded so far.
func reportOpt(r *runResult, res *snapea.Result, runs int) {
	snap := metrics.Export(true)
	per := func(v float64) float64 { return v / float64(runs) }
	stage := map[string]float64{}
	if snap.Runtime != nil {
		for _, sp := range snap.Runtime.Spans {
			if rest, ok := strings.CutPrefix(sp.Name, "tune/"); ok {
				stage[rest] += sp.DurMS / 1e3
			}
		}
	}
	r.set("snapea.opt.profile_s", per(stage["profile"]), runs)
	r.set("snapea.opt.local_s", per(stage["local"]), runs)
	r.set("snapea.opt.global_s", per(stage["global"]), runs)
	r.set("snapea.opt.candidates", per(sumCounter(snap.Counters, "opt.candidates")), 0)
	r.set("snapea.opt.global_iters", per(sumCounter(snap.Counters, "opt.global_iters")), 0)
	r.set("snapea.opt.layers_predictive", float64(len(res.Predictive)), 0)
	r.set("snapea.opt.layers_total", float64(len(res.Params)), 0)
}

// sumCounter adds a counter over all its label sets.
func sumCounter(points []metrics.Point, name string) float64 {
	var sum int64
	for _, pt := range points {
		if pt.Name == name {
			sum += pt.Value
		}
	}
	return float64(sum)
}

// measureLoad drives the serving workload's traffic for the window,
// checks every 200 against the offline reference, and reports the
// client-side view (timed pass) or the per-layer decomposition rebuilt
// from the response fields plus one scrape of the metrics registry
// (traced pass).
func measureLoad(ctx context.Context, r *runResult, tr *tracer, w *workload, p *prepared, ref *snapea.Network, window time.Duration, seed uint64) {
	lt := newLoadTarget(p.fleet, w, p.Test.Images, ref)
	defer lt.client.CloseIdleConnections()

	// Warm connections, lazy state and the gateway's latency tracker.
	runLoad(ctx, w, lt, window/20, seed+1)

	var plainP50 float64
	if r.Traced {
		// A first stretch with collection off is the reference for
		// trace.overhead_share.
		metrics.Disable()
		plain := summarize(runLoad(ctx, w, lt, window/3, seed), w.Limit)
		plainP50 = median(plain.LatMS)
		metrics.Enable()
		window -= window / 3
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outs := runLoad(ctx, w, lt, window, seed)
	runtime.ReadMemStats(&after)
	s := summarize(outs, w.Limit)
	r.Attempted += s.Sent
	r.Failed += s.Failed

	if !r.Traced {
		setLatency(r, s.LatMS, float64(s.OK)/s.Wall.Seconds(), s.WithinLimit, s.Sent)
		r.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(s.Sent), s.Sent)
		return
	}
	reportLoad(r, tr, w, outs, s)
	if plainP50 > 0 {
		r.set("trace.overhead_share", median(s.LatMS)/plainP50-1, len(s.LatMS))
	}
}

// reportLoad sets the serve/cluster/resilience/integrity/loadgen
// per-layer metrics and records one span tree per request.
func reportLoad(r *runResult, tr *tracer, w *workload, outs []outcome, s *loadStats) {
	var queue, infer, other, beyond, batch, reduction []float64
	gt1 := 0
	perReplica := map[string]int{}
	for i := range outs {
		o := &outs[i]
		if !o.Match {
			continue
		}
		rep := o.Reply
		total := time.Duration(rep.TotalUS) * time.Microsecond
		q := time.Duration(rep.QueueUS) * time.Microsecond
		inf := time.Duration(rep.InferUS) * time.Microsecond
		client := o.Done - o.Sent
		// The handler's interval is not observable from outside; centre
		// it in the client's, with queue then infer at its end.
		h0 := o.Sent + (client-total)/2
		handler := interval{h0, h0 + total}
		children := []interval{{handler.End - inf - q, handler.End - inf}, {handler.End - inf, handler.End}}
		queue = append(queue, ms(q))
		infer = append(infer, ms(inf))
		other = append(other, ms(selfTime(handler, children)))
		beyond = append(beyond, ms(client-total))
		batch = append(batch, float64(rep.BatchSize))
		reduction = append(reduction, rep.MacReduction)
		if rep.BatchSize > 1 {
			gt1++
		}
		if o.Replica != "" {
			perReplica[o.Replica]++
		}
		at := func(d time.Duration) time.Time { return tr.epoch.Add(d) }
		id := tr.add(0, "request", at(o.Due), at(o.Done))
		hid := tr.add(id, "serve/handler", at(handler.Start), at(handler.End))
		tr.add(hid, "serve/queue", at(children[0].Start), at(children[0].End))
		tr.add(hid, "serve/infer", at(children[1].Start), at(children[1].End))
	}
	n := len(queue)
	r.set("serve.queue_ms_p50", median(queue), n)
	r.set("serve.queue_ms_p95", percentile(queue, 95), n)
	r.set("serve.infer_ms_p50", median(infer), n)
	r.set("serve.infer_ms_p95", percentile(infer, 95), n)
	r.set("serve.handler_other_ms_p50", median(other), n)
	r.set("serve.batch_size_mean", mean(batch), n)
	r.set("serve.batch_gt1_share", float64(gt1)/float64(max(n, 1)), n)
	r.set("serve.mac_reduction_mean", mean(reduction), n)
	if w.Kind == kindGateway {
		r.set("cluster.overhead_ms_p50", median(beyond), n)
		r.set("cluster.overhead_ms_p95", percentile(beyond, 95), n)
		most, least := 0, n
		for _, c := range perReplica {
			most, least = max(most, c), min(least, c)
		}
		if len(perReplica) > 1 && least > 0 {
			r.set("cluster.replica_imbalance", float64(most)/float64(least), 0)
		}
	} else {
		r.set("serve.transport_ms_p50", median(beyond), n)
	}

	status := map[int]int{}
	for i := range outs {
		status[outs[i].Status]++
	}
	r.set("serve.rejects_429", float64(status[429]), 0)
	r.set("serve.shed_503", float64(status[503]), 0)
	r.set("serve.timeouts_504", float64(status[504]), 0)

	r.set("loadgen.sent", float64(s.Sent), 0)
	r.set("loadgen.ok", float64(s.OK), 0)
	r.set("loadgen.failed", float64(s.Failed), 0)
	r.set("loadgen.lag_ms_p95", percentile(s.LagMS, 95), len(s.LagMS))
	r.set("loadgen.lat_p95_ms", percentile(s.LatMS, 95), len(s.LatMS))
	r.set("loadgen.lat_p99_ms", percentile(s.LatMS, 99), len(s.LatMS))

	// One scrape of the program's own registry, taken with collection on
	// since before set-up so start-up work (canary runs) is counted.
	snap := metrics.Export(true)
	var rc []metrics.Point
	if snap.Runtime != nil {
		rc = snap.Runtime.Counters
	}
	hits, misses := sumCounter(rc, "serve.tensor_pool.hits"), sumCounter(rc, "serve.tensor_pool.misses")
	if hits+misses > 0 {
		r.set("serve.tensor_pool_hit_share", hits/(hits+misses), 0)
	}
	r.set("serve.audit_batches", sumCounter(rc, "serve.audit_batches"), 0)
	fired := sumCounter(rc, "gateway.hedges_fired")
	r.set("cluster.hedges_fired", fired, 0)
	r.set("cluster.hedges_won", sumCounter(rc, "gateway.hedges_won"), 0)
	if reqs := sumCounter(rc, "gateway.requests"); reqs > 0 {
		r.set("cluster.hedge_share", fired/reqs, 0)
	}
	r.set("cluster.failovers", sumCounter(rc, "gateway.failovers"), 0)
	r.set("resilience.breaker_opens", sumCounter(rc, "serve.breaker_opens")+sumCounter(rc, "gateway.ejections"), 0)
	r.set("resilience.degrade_events", sumCounter(rc, "serve.degrade_events"), 0)
	r.set("integrity.quarantines", sumCounter(rc, "integrity.quarantines"), 0)
	r.set("integrity.scrub_bytes", sumCounter(rc, "integrity.scrub_bytes"), 0)
	r.set("integrity.canary_runs", sumCounter(rc, "integrity.canary_runs"), 0)
}
