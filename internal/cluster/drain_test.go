package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapea/internal/serve"
)

// predictBody is a tinynet /v1/predict JSON body (768 inputs) that
// differs per image.
func predictBody(image int) []byte {
	in := make([]float32, 768)
	for k := range in {
		in[k] = float32((k*7+image*13)%17) / 17
	}
	body, err := json.Marshal(map[string][]float32{"input": in})
	if err != nil {
		panic(err)
	}
	return body
}

// logitsOf decodes a 200 body's logits.
func logitsOf(body []byte) ([]float32, error) {
	var reply struct {
		Logits []float32 `json:"logits"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	return reply.Logits, nil
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

// TestGatewayDrainsOneReplicaUnderLoad is the kill-one-replica scenario
// in process: three real tinynet replicas behind the gateway, four
// closed-loop clients, and one replica running the exact-drain sequence
// (BeginDrain, listener Close, Close) mid-run. Every accepted request
// must be answered 200 with logits bit-identical to a direct replica's,
// the probes must eject the drained replica, and no request sent after
// its listener closed may be answered by it.
func TestGatewayDrainsOneReplicaUnderLoad(t *testing.T) {
	const (
		clients     = 4
		images      = 8
		drainAfter  = 100 // answers before the drain starts
		drainWindow = 50  // answers between BeginDrain and the listener's Close
		afterClose  = 100 // answers required once the drained listener closed
	)
	type replica struct {
		srv *serve.Server
		ts  *httptest.Server
	}
	reps := make([]replica, 3)
	urls := make([]string, len(reps))
	for i := range reps {
		s := serve.New(serve.Config{Models: []string{"tinynet"}})
		if err := s.Preload(context.Background()); err != nil {
			t.Fatalf("preload: %v", err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		reps[i], urls[i] = replica{s, ts}, ts.URL
	}

	bodies := make([][]byte, images)
	want := make([][]float32, images)
	for i := range bodies {
		bodies[i] = predictBody(i)
		resp, err := http.Post(urls[1]+"/v1/predict?model=tinynet", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatalf("direct predict: %v", err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct predict: status %d: %s", resp.StatusCode, buf.String())
		}
		if want[i], err = logitsOf(buf.Bytes()); err != nil {
			t.Fatalf("direct predict: %v", err)
		}
	}

	g := newTestGateway(t, Config{Replicas: urls, ProbeInterval: 20 * time.Millisecond})
	drained := reps[0]

	var (
		answered  atomic.Int64
		byDrained atomic.Int64 // answers by the drained replica
		closed    atomic.Bool  // set once drained's listener has closed
		stop      atomic.Bool
		drainNow  = make(chan struct{})
		once      sync.Once
		errs      = make(chan error, clients)
		wg        sync.WaitGroup
	)
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; !stop.Load(); i++ {
				image := i % images
				sentAfterClose := closed.Load()
				req := httptest.NewRequest(http.MethodPost, "/v1/predict?model=tinynet", bytes.NewReader(bodies[image]))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d image %d: status %d: %s", c, image, rec.Code, rec.Body.String())
					return
				}
				got, err := logitsOf(rec.Body.Bytes())
				if err != nil || !sameBits(got, want[image]) {
					errs <- fmt.Errorf("client %d image %d: logits %v (err %v), want %v", c, image, got, err, want[image])
					return
				}
				if rec.Header().Get("X-Snapea-Replica") == drained.ts.URL {
					if sentAfterClose {
						errs <- fmt.Errorf("client %d image %d: answered by the drained replica after its listener closed", c, image)
						return
					}
					byDrained.Add(1)
				}
				if answered.Add(1) == drainAfter {
					once.Do(func() { close(drainNow) })
				}
			}
		}(c)
	}

	select {
	case <-drainNow:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(time.Minute):
		t.Fatalf("only %d answers before the drain point", answered.Load())
	}
	// awaitAnswers waits until n more requests have been answered.
	awaitAnswers := func(n int64, phase string) {
		t.Helper()
		mark, deadline := answered.Load(), time.Now().Add(time.Minute)
		for answered.Load() < mark+n {
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d answers %s, want %d", answered.Load()-mark, phase, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// While draining, the replica refuses new predictions with 503 until
	// the probes eject it; those requests must fail over.
	drained.srv.BeginDrain()
	awaitAnswers(drainWindow, "while the replica drained")
	drained.ts.Close() // returns once its in-flight requests are answered
	closed.Store(true)
	drained.srv.Close()

	waitHealthy(t, g, 2, 5*time.Second)
	awaitAnswers(afterClose, "after the drained listener closed")
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if byDrained.Load() == 0 {
		t.Error("the drained replica answered nothing before its drain; the scenario never loaded it")
	}
}
