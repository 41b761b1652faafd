package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"snapea/internal/faults"
)

// TestDrainGateRejectsNewPredicts is the drain/admission regression: on
// pre-fix code /v1/predict ignored the draining flag, so new requests
// kept racing into gates that Close was about to tear down. After
// BeginDrain every new prediction must get a clean 503 with Retry-After
// while /healthz stays 200.
func TestDrainGateRejectsNewPredicts(t *testing.T) {
	s, ts := testServer(t, Config{Models: []string{"tinynet"}})
	body := jsonBody(t, tinyElems(t), 9).Bytes()

	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusOK {
		t.Fatalf("pre-drain predict: status %d, want 200", code)
	}

	s.BeginDrain()
	code, _, retry := postPredict(t, ts.URL, "tinynet", "", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict: status %d, want 503", code)
	}
	if retry == "" {
		t.Fatal("post-drain 503 carries no Retry-After")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: status %d, want 200", resp.StatusCode)
	}
}

// TestDrainAdmissionRace hammers /v1/predict from many goroutines while
// BeginDrain and Close run concurrently with the load. The contract:
// every request is answered (no hangs, no connection drops) and every
// answer is either a success or a clean shutdown/timeout rejection —
// never a 500. Run under -race this also proves the draining flag and
// the gate teardown are data-race free against admission.
func TestDrainAdmissionRace(t *testing.T) {
	s, ts := testServer(t, Config{Models: []string{"tinynet"}})
	body := jsonBody(t, tinyElems(t), 11).Bytes()
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusOK {
		t.Fatalf("warmup: status %d", code)
	}

	const hammers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 256)
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", bytes.NewReader(body))
				if err != nil {
					// The httptest server is only closed after the hammers
					// stop, so a transport error is a real failure.
					select {
					case bad <- fmt.Sprintf("transport: %v", err):
					default:
					}
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusOK, http.StatusServiceUnavailable,
					http.StatusTooManyRequests, http.StatusGatewayTimeout:
				default:
					select {
					case bad <- fmt.Sprintf("status %d", code):
					default:
					}
				}
			}
		}()
	}

	time.Sleep(10 * time.Millisecond)
	s.BeginDrain()
	time.Sleep(10 * time.Millisecond)
	// Close while the hammers are still firing: the drain gate must keep
	// every new request out of the closing gates.
	s.Close()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Errorf("hammered predict failed: %s", msg)
	}
}

// TestWatchdogLeakAccounting wedges a forward permanently (injected
// delay of an hour against a 200ms request deadline) and asserts the
// leak accounting: the stranded input tensor is counted in
// serve.tensor_pool leaks, and the pool re-allocates around it so the
// model keeps serving.
func TestWatchdogLeakAccounting(t *testing.T) {
	s, ts := testServer(t, Config{
		Models:         []string{"tinynet"},
		RequestTimeout: 200 * time.Millisecond,
		Faults: faults.Config{
			Seed:        7,
			ServeDelay:  time.Hour, // never finishes within the test
			ServeLimit:  1,
			ServeTarget: "tinynet/exact",
		},
	})
	preload(t, s)
	body := jsonBody(t, tinyElems(t), 13).Bytes()

	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusGatewayTimeout {
		t.Fatalf("wedged forward: status %d, want 504", code)
	}
	if got := s.pool.leaks.Load(); got != 1 {
		t.Fatalf("tensor_pool leaks = %d after abandoned forward, want 1", got)
	}
	if got := s.pool.leaked.Load(); got != 1 {
		t.Fatalf("tensor_pool leaked gauge = %d, want 1", got)
	}

	// Bounded re-allocation: the fault budget is exhausted, so the next
	// forward is clean and must succeed on a freshly allocated tensor.
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusOK {
		t.Fatalf("post-leak predict: status %d, want 200", code)
	}
	if got := s.pool.reclaims.Load(); got != 0 {
		t.Fatalf("tensor_pool reclaims = %d while forward still wedged, want 0", got)
	}
}

// TestWatchdogLeakReclaimed wedges a forward briefly (delay longer than
// the request deadline but shorter than the test) and asserts the other
// half of the handshake: when the abandoned forward finally finishes,
// the tensor is reclaimed — the leaked gauge returns to zero and the
// reclaim is counted.
func TestWatchdogLeakReclaimed(t *testing.T) {
	s, ts := testServer(t, Config{
		Models:         []string{"tinynet"},
		RequestTimeout: 100 * time.Millisecond,
		Faults: faults.Config{
			Seed:        7,
			ServeDelay:  400 * time.Millisecond,
			ServeLimit:  1,
			ServeTarget: "tinynet/exact",
		},
	})
	preload(t, s)
	body := jsonBody(t, tinyElems(t), 17).Bytes()

	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusGatewayTimeout {
		t.Fatalf("wedged forward: status %d, want 504", code)
	}
	if got := s.pool.leaked.Load(); got != 1 {
		t.Fatalf("tensor_pool leaked gauge = %d right after abandon, want 1", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.pool.leaked.Load() != 0 || s.pool.reclaims.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned forward not reclaimed: leaked=%d reclaims=%d",
				s.pool.leaked.Load(), s.pool.reclaims.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
