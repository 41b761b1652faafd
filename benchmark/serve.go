package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"snapea/internal/atomicfile"
	"snapea/internal/cluster"
	"snapea/internal/models"
	"snapea/internal/serve"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// scratchDir holds the params artifact the serving workload hands its
// server. It is relative to the working directory so the benchmark
// writes only inside its checkout; tests point it at t.TempDir().
var scratchDir = filepath.Join(".bench_build", "tmp")

// inflightCap bounds the open-loop generator's outstanding requests at
// serve's default BatchMax: the fewest connections that let a full batch
// form, and a bound on what a stalled server can pile up.
const inflightCap = 8

// listener is one http.Handler on a loopback port.
type listener struct {
	srv  *http.Server
	done chan struct{}
	URL  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, done: make(chan struct{}), URL: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return l, nil
}

// shutdown stops the listener and waits for its goroutine to exit.
func (l *listener) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// fleet is the serving stack under test: one or two serve.Servers on
// loopback listeners, optionally behind a cluster.Gateway.
type fleet struct {
	servers    []*serve.Server
	listeners  []*listener // one per server
	gateway    *cluster.Gateway
	gwListener *listener
	paramsPath string
}

// startFleet builds the workload's serving stack with every serve and
// cluster setting at its default and preloads the model.
func startFleet(ctx context.Context, w *workload, p *prepared) (err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	cfg := serve.Config{Models: []string{w.Net}}
	replicas := 1
	if w.Kind == kindGateway {
		replicas = 2
	}
	if w.Predictive {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return err
		}
		f.paramsPath = filepath.Join(scratchDir, fmt.Sprintf("%s-params-%d.json", w.Net, os.Getpid()))
		if err := atomicfile.WriteFile(f.paramsPath, p.ParamsJSON, 0o644); err != nil {
			return err
		}
		cfg.ParamsFiles = map[string]string{w.Net: f.paramsPath}
	}
	t := time.Now()
	var urls []string
	for i := 0; i < replicas; i++ {
		s := serve.New(cfg)
		f.servers = append(f.servers, s)
		if err := s.Preload(ctx); err != nil {
			return fmt.Errorf("preload %s: %w", w.Net, err)
		}
		l, err := listen(s)
		if err != nil {
			return err
		}
		f.listeners = append(f.listeners, l)
		urls = append(urls, l.URL)
	}
	if w.Kind == kindGateway {
		if f.gateway, err = cluster.New(cluster.Config{Replicas: urls}); err != nil {
			return err
		}
		if f.gwListener, err = listen(f.gateway); err != nil {
			return err
		}
	}
	p.Stages.Preload = time.Since(t)
	p.fleet = f
	return nil
}

// frontURL is what the load generator talks to.
func (f *fleet) frontURL() string {
	if f.gwListener != nil {
		return f.gwListener.URL
	}
	return f.listeners[0].URL
}

// close drains front to back: gateway first (stops sending), replicas
// after (finish what they accepted), as the tools' own shutdown does.
func (f *fleet) close() {
	if f.gateway != nil {
		f.gateway.BeginDrain()
		if f.gwListener != nil {
			f.gwListener.shutdown()
		}
		f.gateway.Close()
	}
	for i, s := range f.servers {
		s.BeginDrain()
		if i < len(f.listeners) {
			f.listeners[i].shutdown()
		}
		s.Close()
	}
	if f.paramsPath != "" {
		os.Remove(f.paramsPath)
	}
}

// referenceNet builds the network the way serve's registry does — an
// uncalibrated models.Build at the server's default options, compiled
// with the params file when the workload serves predictive mode — so
// served logits can be checked against an offline Forward.
func referenceNet(w *workload, p *prepared) (*snapea.Network, error) {
	m, err := models.Build(w.Net, models.Options{})
	if err != nil {
		return nil, err
	}
	if !w.Predictive {
		return snapea.CompileExact(m), nil
	}
	f, err := snapea.ParseParams(p.ParamsJSON)
	if err != nil {
		return nil, err
	}
	return snapea.CompileParams(m, f, snapea.NegByMagnitude)
}

// predictReply is the part of serve's /v1/predict response the harness
// reads.
type predictReply struct {
	Logits       []float32 `json:"logits"`
	BatchSize    int       `json:"batch_size"`
	QueueUS      int64     `json:"queue_us"`
	InferUS      int64     `json:"infer_us"`
	TotalUS      int64     `json:"total_us"`
	MacReduction float64   `json:"mac_reduction"`
}

// outcome is one request as the load generator saw it. Times are
// offsets from the generator's start.
type outcome struct {
	Due, Sent, Done time.Duration
	Status          int
	Err             error
	Reply           predictReply
	Replica         string // X-Snapea-Replica, set by the gateway
	// Match is true when the response was a 200 whose logits are
	// bit-identical to the offline reference for the same image.
	Match bool
}

// refused reports an answer that is neither success nor a fault of the
// system's output: admission control or shedding turned the request away.
func (o *outcome) refused() bool {
	return o.Status == http.StatusTooManyRequests || o.Status == http.StatusServiceUnavailable ||
		o.Status == http.StatusGatewayTimeout
}

// loadTarget is what requests are fired at and checked against.
type loadTarget struct {
	client      *http.Client
	url         string
	contentType string
	bodies      [][]byte    // one per distinct image
	want        [][]float32 // reference logits per image
}

func newLoadTarget(f *fleet, w *workload, images []*tensor.Tensor, ref *snapea.Network) *loadTarget {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * inflightCap
	lt := &loadTarget{
		client: &http.Client{Transport: tr},
		url:    f.frontURL() + "/v1/predict?model=" + w.Net,
	}
	if w.Predictive {
		lt.url += "&mode=" + serve.ModePredictive
	}
	for _, img := range images {
		d := img.Data()
		if w.Kind == kindServe { // raw little-endian float32
			raw := make([]byte, 4*len(d))
			for i, v := range d {
				binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
			}
			lt.bodies = append(lt.bodies, raw)
			lt.contentType = "application/octet-stream"
		} else {
			body, err := json.Marshal(map[string][]float32{"input": d})
			if err != nil {
				panic(err) // finite floats
			}
			lt.bodies = append(lt.bodies, body)
			lt.contentType = "application/json"
		}
		out := ref.Forward(img, snapea.RunOpts{}, nil)
		lt.want = append(lt.want, append([]float32(nil), out.Data()...))
	}
	return lt
}

// fire sends one request and checks its answer. start is the
// generator's zero time.
func (lt *loadTarget) fire(ctx context.Context, start time.Time, image int, due time.Duration) (o outcome) {
	o = outcome{Due: due, Sent: time.Since(start)}
	defer func() { o.Done = time.Since(start) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lt.url, bytes.NewReader(lt.bodies[image]))
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("Content-Type", lt.contentType)
	resp, err := lt.client.Do(req)
	if err != nil {
		o.Err = err
		return o
	}
	defer resp.Body.Close()
	o.Status = resp.StatusCode
	o.Replica = resp.Header.Get("X-Snapea-Replica")
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.Err = err
		return o
	}
	if o.Status != http.StatusOK {
		return o
	}
	if err := json.Unmarshal(body, &o.Reply); err != nil {
		o.Err = fmt.Errorf("decode 200 body: %w", err)
		return o
	}
	o.Match = sameBits(o.Reply.Logits, lt.want[image])
	return o
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// openLoop fires request i at start+schedule[i] whatever the state of
// earlier requests, up to inflightCap outstanding; past the cap the
// generator waits, and that wait counts in the request's latency
// because latency runs from the due time.
func openLoop(ctx context.Context, lt *loadTarget, schedule []time.Duration, picks []int) []outcome {
	out := make([]outcome, len(schedule))
	slots := make(chan struct{}, inflightCap)
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range schedule {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			out[i] = lt.fire(ctx, start, picks[i], due)
			<-slots
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop runs `clients` callers that each send their next request
// only after the previous reply, until the window ends.
func closedLoop(ctx context.Context, lt *loadTarget, clients int, window time.Duration, seed uint64) []outcome {
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(datasetSeed(seed, uint64(100+c)))
			for time.Since(start) < window {
				sent := time.Since(start)
				per[c] = append(per[c], lt.fire(ctx, start, rng.Intn(len(lt.bodies)), sent))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, o := range per {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Due < all[j].Due })
	return all
}

// loadStats is the client-side summary of one load phase; its samples
// are in due-time order.
type loadStats struct {
	Sent, OK, Failed, Refused int
	WithinLimit               int
	LatMS                     []float64 // every answered request, from its due time
	LagMS                     []float64 // open loop: how late each request fired
	Wall                      time.Duration
}

func summarize(outs []outcome, limit time.Duration) *loadStats {
	s := &loadStats{Sent: len(outs)}
	for i := range outs {
		o := &outs[i]
		if o.Done > s.Wall {
			s.Wall = o.Done
		}
		s.LagMS = append(s.LagMS, ms(o.Sent-o.Due))
		switch {
		case o.Match:
			s.OK++
			lat := o.Done - o.Due
			s.LatMS = append(s.LatMS, ms(lat))
			if lat <= limit {
				s.WithinLimit++
			}
		case o.Err == nil && o.refused():
			s.Refused++ // misses the limit; not a wrong output
		default:
			s.Failed++ // transport error, unexpected status, or wrong logits
		}
	}
	return s
}

// runLoad drives the workload's traffic for the window and returns the
// raw outcomes.
func runLoad(ctx context.Context, w *workload, lt *loadTarget, window time.Duration, seed uint64) []outcome {
	if w.Kind == kindGateway {
		return closedLoop(ctx, lt, runtime.NumCPU(), window, seed)
	}
	rng := tensor.NewRNG(datasetSeed(seed, 50))
	n := int(math.Round(w.Rate * window.Seconds()))
	schedule := poissonSchedule(rng, n, window)
	picks := make([]int, n)
	for i := range picks {
		picks[i] = rng.Intn(len(lt.bodies))
	}
	return openLoop(ctx, lt, schedule, picks)
}
