// Package metrics is the repository's stdlib-only observability layer:
// atomic counters, gauges and histograms registered per (name, labels)
// in a process-wide registry, plus wall-clock span tracing for pipeline
// stages. The engine, the dense convolutions, Algorithm 1 and the cycle
// simulator all report here, and the shared -metrics tool flag (see
// internal/cli) exports a snapshot on exit.
//
// Two properties shape the design:
//
//  1. Negligible overhead. Collection is disabled by default; every
//     instrumentation site guards itself with Enabled(), a single atomic
//     load. Hot paths record at *unit* granularity — one counter batch
//     per layer execution, per forward pass, per simulation — never per
//     convolution window, so even the enabled path costs a handful of
//     atomic adds amortized over millions of MACs. The disabled path is
//     benchmarked (BenchmarkEnabledCheck, BenchmarkLayerPlanRunMetrics*
//     in internal/snapea) and budgeted in DESIGN.md.
//
//  2. Determinism. The snapshot splits into a deterministic section —
//     integer counters, gauges and histogram buckets whose values are
//     sums of per-unit integers recorded after the worker pool's
//     deterministic merges (the same rules as PR 2's LayerTrace shards:
//     associative integer adds cannot observe worker count or schedule)
//     — and a "runtime" section holding whatever is inherently
//     schedule- or clock-dependent (span durations, scratch-reuse
//     counts, the worker limit). Snapshot(false) exports only the
//     deterministic section and is byte-identical for every -workers
//     value; the WorkerInvariance tests assert exactly that.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide collection switch. All instrumentation
// sites are compiled in unconditionally but record only while enabled.
var enabled atomic.Bool

// Enable turns collection on (idempotent).
func Enable() { enabled.Store(true) }

// Disable turns collection off. Already-recorded values remain until
// Reset.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on. Instrumentation sites that
// do any work beyond a counter add (building label strings, iterating
// per-window data) must check it first.
func Enabled() bool { return enabled.Load() }

// Labels is an ordered set of key=value pairs qualifying a metric —
// typically {"layer": node, "mode": "exact"|"predictive"} for engine
// metrics, {"cfg": machine} for simulator metrics; a "kernel" key is
// supported for per-kernel registration where the cardinality warrants
// it. Label maps are serialized with sorted keys, so two Labels with
// the same contents always address the same metric.
type Labels map[string]string

// key serializes name+labels into the registry key.
func key(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range ks {
		sb.WriteByte('|')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
	}
	return sb.String()
}

// Counter is a monotonically increasing int64. Adds are atomic and
// associative, so any assignment of work units to workers sums to the
// same value — the property that keeps deterministic snapshots
// byte-identical across worker counts.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. It records regardless of Enabled — the
// caller holds the reference only if it looked the counter up, and the
// Enabled gate belongs at the lookup/instrumentation site.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 level: last-write-wins through Set (worker limits,
// configured sizes), or moved by each of its writers through Add.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts int64 observations into fixed buckets. Bounds are
// inclusive upper bounds; observations above the last bound land in the
// overflow bucket. Counts and the running sum are integer atomics, so
// histograms inherit the counters' worker-count invariance.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveBatch merges locally bucketed observations in one shot: counts
// holds one entry per bucket (len(bounds)+1, the last being overflow)
// and sum is the total of the observed values. It is equivalent to the
// matching sequence of Observe calls but costs one atomic add per
// non-empty bucket instead of three per observation — the difference
// between a rounding error and a hot-path tax when a caller observes
// millions of values per run (the engine's per-window op histogram).
//
// A bucket-count mismatch records nothing and returns an error:
// observability must degrade one metric, never kill the process that is
// being observed.
func (h *Histogram) ObserveBatch(counts []int64, sum int64) error {
	if len(counts) != len(h.counts) {
		return fmt.Errorf("metrics: ObserveBatch with %d buckets, histogram has %d", len(counts), len(h.counts))
	}
	var n int64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	if n != 0 {
		h.sum.Add(sum)
		h.n.Add(n)
	}
	return nil
}

// spanRecord is one completed wall-clock span.
type spanRecord struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // offset from registry creation
	DurMS   float64 `json:"dur_ms"`
}

// maxSpans bounds the span log so a pathological caller cannot grow the
// registry without bound; overflow is counted, not silently dropped.
const maxSpans = 16384

// Registry holds metrics. The package-level Default registry is what
// the instrumentation and the -metrics flag use; independent registries
// exist for tests.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*centry
	gauges   map[string]*gentry
	hists    map[string]*hentry
	spans    []spanRecord
	dropped  int64
	epoch    time.Time
}

type centry struct {
	name    string
	labels  Labels
	runtime bool
	c       Counter
}

type gentry struct {
	name    string
	labels  Labels
	runtime bool
	g       Gauge
}

type hentry struct {
	name    string
	labels  Labels
	runtime bool
	h       Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*centry),
		gauges:   make(map[string]*gentry),
		hists:    make(map[string]*hentry),
		epoch:    time.Now(),
	}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// Counter returns (creating if needed) the deterministic counter for
// (name, labels).
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.counter(name, labels, false)
}

// RuntimeCounter returns a counter exported only in the runtime section
// of the snapshot — for values that legitimately depend on the worker
// count or schedule (scratch allocations, queue depths).
func (r *Registry) RuntimeCounter(name string, labels Labels) *Counter {
	return r.counter(name, labels, true)
}

func (r *Registry) counter(name string, labels Labels, runtime bool) *Counter {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[k]
	if !ok {
		e = &centry{name: name, labels: cloneLabels(labels), runtime: runtime}
		r.counters[k] = e
	}
	return &e.c
}

// Gauge returns (creating if needed) the deterministic gauge.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return r.gauge(name, labels, false)
}

// RuntimeGauge returns a gauge exported only in the runtime section.
func (r *Registry) RuntimeGauge(name string, labels Labels) *Gauge {
	return r.gauge(name, labels, true)
}

func (r *Registry) gauge(name string, labels Labels, runtime bool) *Gauge {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[k]
	if !ok {
		e = &gentry{name: name, labels: cloneLabels(labels), runtime: runtime}
		r.gauges[k] = e
	}
	return &e.g
}

// Histogram returns (creating if needed) the histogram for (name,
// labels). bounds must be ascending; they are fixed at first
// registration and later calls ignore the argument.
func (r *Registry) Histogram(name string, labels Labels, bounds []int64) *Histogram {
	return r.histogram(name, labels, bounds, false)
}

// RuntimeHistogram returns a histogram exported only in the runtime
// section of the snapshot — for distributions that depend on scheduling
// (queue waits, batch sizes, request latencies) and therefore must not
// contaminate the deterministic export.
func (r *Registry) RuntimeHistogram(name string, labels Labels, bounds []int64) *Histogram {
	return r.histogram(name, labels, bounds, true)
}

func (r *Registry) histogram(name string, labels Labels, bounds []int64, runtime bool) *Histogram {
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hists[k]
	if !ok {
		b := append([]int64(nil), bounds...)
		e = &hentry{name: name, labels: cloneLabels(labels), runtime: runtime}
		e.h.bounds = b
		e.h.counts = make([]atomic.Int64, len(b)+1)
		r.hists[k] = e
	}
	return &e.h
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// Span is an in-flight wall-clock measurement of one pipeline stage.
type Span struct {
	r     *Registry
	name  string
	start time.Time
	done  atomic.Bool
}

// StartSpan begins timing a named stage. End is idempotent and safe on
// a nil span, so callers can unconditionally defer it. Spans record
// only while the registry is enabled at Start time. Span timings are
// runtime observability — they land in the runtime snapshot section and
// never feed a deterministic artifact.
//
//snapea:runtime
func (r *Registry) StartSpan(name string) *Span {
	if !Enabled() {
		return nil
	}
	return &Span{r: r, name: name, start: time.Now()}
}

// End completes the span and records it in the registry. Like
// StartSpan, the wall-clock read here feeds runtime observability only.
//
//snapea:runtime
func (s *Span) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if len(s.r.spans) >= maxSpans {
		s.r.dropped++
		return
	}
	s.r.spans = append(s.r.spans, spanRecord{
		Name:    s.name,
		StartMS: float64(s.start.Sub(s.r.epoch)) / float64(time.Millisecond),
		DurMS:   float64(dur) / float64(time.Millisecond),
	})
}

// Reset drops every registered metric and span (test hook; also used
// between worker-invariance runs).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*centry)
	r.gauges = make(map[string]*gentry)
	r.hists = make(map[string]*hentry)
	r.spans = nil
	r.dropped = 0
	r.epoch = time.Now()
}

// Point is one exported counter or gauge value.
type Point struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// HistPoint is one exported histogram.
type HistPoint struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(bounds)+1, last = overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// RuntimeSection holds the schedule- and clock-dependent part of a
// snapshot: excluded from the deterministic export, so the rest stays
// byte-identical across worker counts.
type RuntimeSection struct {
	Counters     []Point      `json:"counters,omitempty"`
	Gauges       []Point      `json:"gauges,omitempty"`
	Histograms   []HistPoint  `json:"histograms,omitempty"`
	Spans        []spanRecord `json:"spans,omitempty"`
	SpansDropped int64        `json:"spans_dropped,omitempty"`
}

// Snapshot is a point-in-time export of a registry. Slices are sorted
// by registry key and label maps marshal with sorted keys, so the same
// metric state always serializes to the same bytes.
type Snapshot struct {
	Version    int             `json:"version"`
	Counters   []Point         `json:"counters"`
	Gauges     []Point         `json:"gauges,omitempty"`
	Histograms []HistPoint     `json:"histograms,omitempty"`
	Runtime    *RuntimeSection `json:"runtime,omitempty"`
}

// SnapshotVersion is the current snapshot schema version.
const SnapshotVersion = 1

// Snapshot exports the registry. withRuntime selects whether the
// runtime section (spans, runtime counters/gauges) is included; without
// it the result is deterministic — byte-identical for every worker
// count and schedule that executed the same work.
func (r *Registry) Snapshot(withRuntime bool) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{Version: SnapshotVersion, Counters: []Point{}}
	var rt RuntimeSection

	ckeys := sortedKeys(r.counters)
	for _, k := range ckeys {
		e := r.counters[k]
		p := Point{Name: e.name, Labels: e.labels, Value: e.c.Value()}
		if e.runtime {
			rt.Counters = append(rt.Counters, p)
		} else {
			snap.Counters = append(snap.Counters, p)
		}
	}
	gkeys := sortedKeys(r.gauges)
	for _, k := range gkeys {
		e := r.gauges[k]
		p := Point{Name: e.name, Labels: e.labels, Value: e.g.Value()}
		if e.runtime {
			rt.Gauges = append(rt.Gauges, p)
		} else {
			snap.Gauges = append(snap.Gauges, p)
		}
	}
	hkeys := sortedKeys(r.hists)
	for _, k := range hkeys {
		e := r.hists[k]
		hp := HistPoint{
			Name:   e.name,
			Labels: e.labels,
			Bounds: e.h.bounds,
			Counts: make([]int64, len(e.h.counts)),
			Sum:    e.h.sum.Load(),
			Count:  e.h.n.Load(),
		}
		for i := range e.h.counts {
			hp.Counts[i] = e.h.counts[i].Load()
		}
		if e.runtime {
			rt.Histograms = append(rt.Histograms, hp)
		} else {
			snap.Histograms = append(snap.Histograms, hp)
		}
	}
	if withRuntime {
		rt.Spans = append([]spanRecord(nil), r.spans...)
		rt.SpansDropped = r.dropped
		snap.Runtime = &rt
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts
// map keys, so the output is deterministic for a deterministic
// snapshot.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteCSV writes the snapshot's counters and gauges as
// kind,name,labels,value rows (histogram buckets expand to one row per
// bucket). Runtime metrics and spans are appended with kind
// runtime-counter / runtime-gauge / span when present.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("kind,name,labels,value\n")
	row := func(kind string, p Point) {
		fmt.Fprintf(&sb, "%s,%s,%s,%d\n", kind, p.Name, labelString(p.Labels), p.Value)
	}
	for _, p := range s.Counters {
		row("counter", p)
	}
	for _, p := range s.Gauges {
		row("gauge", p)
	}
	for _, h := range s.Histograms {
		for i, c := range h.Counts {
			bound := "+inf"
			if i < len(h.Bounds) {
				bound = fmt.Sprint(h.Bounds[i])
			}
			fmt.Fprintf(&sb, "histogram,%s,%s;le=%s,%d\n", h.Name, labelString(h.Labels), bound, c)
		}
	}
	if s.Runtime != nil {
		for _, p := range s.Runtime.Counters {
			row("runtime-counter", p)
		}
		for _, p := range s.Runtime.Gauges {
			row("runtime-gauge", p)
		}
		for _, h := range s.Runtime.Histograms {
			for i, c := range h.Counts {
				bound := "+inf"
				if i < len(h.Bounds) {
					bound = fmt.Sprint(h.Bounds[i])
				}
				fmt.Fprintf(&sb, "runtime-histogram,%s,%s;le=%s,%d\n", h.Name, labelString(h.Labels), bound, c)
			}
		}
		for _, sp := range s.Runtime.Spans {
			fmt.Fprintf(&sb, "span,%s,,%d\n", sp.Name, int64(sp.DurMS*1e3)) // microseconds
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func labelString(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	ks := make([]string, 0, len(l))
	for k := range l {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = k + "=" + l[k]
	}
	return strings.Join(parts, ";")
}

// Package-level conveniences bound to the Default registry.

// C returns the deterministic counter (name, labels) from Default.
func C(name string, labels Labels) *Counter { return Default.Counter(name, labels) }

// RC returns the runtime counter (name, labels) from Default.
func RC(name string, labels Labels) *Counter { return Default.RuntimeCounter(name, labels) }

// G returns the deterministic gauge (name, labels) from Default.
func G(name string, labels Labels) *Gauge { return Default.Gauge(name, labels) }

// RG returns the runtime gauge (name, labels) from Default.
func RG(name string, labels Labels) *Gauge { return Default.RuntimeGauge(name, labels) }

// H returns the histogram (name, labels) from Default.
func H(name string, labels Labels, bounds []int64) *Histogram {
	return Default.Histogram(name, labels, bounds)
}

// RH returns the runtime histogram (name, labels) from Default.
func RH(name string, labels Labels, bounds []int64) *Histogram {
	return Default.RuntimeHistogram(name, labels, bounds)
}

// StartSpan begins a span on Default (nil, and free, when disabled).
func StartSpan(name string) *Span { return Default.StartSpan(name) }

// Export snapshots Default.
func Export(withRuntime bool) *Snapshot { return Default.Snapshot(withRuntime) }

// Reset clears Default (test hook).
func Reset() { Default.Reset() }
