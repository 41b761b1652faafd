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
// abandon accounting: the stranded forward, and the input it holds, is
// counted in serve.abandoned_forwards while it runs, and the model
// keeps serving.
func TestWatchdogLeakAccounting(t *testing.T) {
	enableMetrics(t)
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
	if got := runtimeGauge("serve.abandoned_forwards"); got != 1 {
		t.Fatalf("serve.abandoned_forwards = %d after abandoned forward, want 1", got)
	}

	// The fault budget is exhausted, so the next forward is clean and
	// must succeed on its own input.
	if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusOK {
		t.Fatalf("post-abandon predict: status %d, want 200", code)
	}
	if got := runtimeGauge("serve.abandoned_forwards"); got != 1 {
		t.Fatalf("serve.abandoned_forwards = %d while forward still wedged, want 1", got)
	}
}

// TestWatchdogLeakReclaimed wedges a forward briefly (delay longer than
// the request deadline but shorter than the test) and asserts the other
// half of the handshake: when the abandoned forward finally returns,
// serve.abandoned_forwards returns to zero.
func TestWatchdogLeakReclaimed(t *testing.T) {
	enableMetrics(t)
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
	if got := runtimeGauge("serve.abandoned_forwards"); got != 1 {
		t.Fatalf("serve.abandoned_forwards = %d right after abandon, want 1", got)
	}
	awaitTrue(t, 5*time.Second, "the abandoned forward to return", func() bool {
		return runtimeGauge("serve.abandoned_forwards") == 0
	})
}

// TestAbandonedForwardsSumAcrossEntries wedges one forward in each of two
// servers of one process serving the same model, so both entries move
// the one serve.abandoned_forwards{tinynet, exact} gauge: it must read 2
// while both forwards run, and 0 once both have returned.
func TestAbandonedForwardsSumAcrossEntries(t *testing.T) {
	enableMetrics(t)
	cfg := Config{
		Models:         []string{"tinynet"},
		RequestTimeout: 100 * time.Millisecond,
		Faults: faults.Config{
			Seed:        7,
			ServeDelay:  time.Second,
			ServeLimit:  1,
			ServeTarget: "tinynet/exact",
		},
	}
	body := jsonBody(t, tinyElems(t), 19).Bytes()
	for i := 0; i < 2; i++ {
		s, ts := testServer(t, cfg)
		preload(t, s)
		if code, _, _ := postPredict(t, ts.URL, "tinynet", "", body); code != http.StatusGatewayTimeout {
			t.Fatalf("server %d: wedged forward: status %d, want 504", i, code)
		}
	}
	if got := runtimeGauge("serve.abandoned_forwards"); got != 2 {
		t.Fatalf("serve.abandoned_forwards = %d with a wedged forward in each of two servers, want 2", got)
	}
	awaitTrue(t, 5*time.Second, "both abandoned forwards to return", func() bool {
		return runtimeGauge("serve.abandoned_forwards") == 0
	})
}

// TestColdCompileOutsideDeadline sends vggnet's first request to a server
// that has not preloaded it, under the default deadline: the compile
// runs before the deadline starts, so the request is answered 200 and
// the breaker records no failed forward. Under the race detector the
// compile and the forward together take most of the deadline;
// TestSlowCompileOutsideDeadline makes the compile outlast it.
func TestColdCompileOutsideDeadline(t *testing.T) {
	s, ts := testServer(t, Config{Models: []string{"vggnet"}})
	body := jsonBody(t, modelElems(t, "vggnet"), 23).Bytes()
	if code, _, _ := postPredict(t, ts.URL, "vggnet", "", body); code != http.StatusOK {
		t.Fatalf("cold vggnet predict: status %d, want 200", code)
	}
	s.reg.mu.Lock()
	e := s.reg.entries[modelKey{Model: "vggnet", Mode: ModeExact}]
	s.reg.mu.Unlock()
	if st := e.state(); st.fails != 0 || st.phase != serving {
		t.Fatalf("breaker after a cold 200: %d failed forwards, phase %v", st.fails, st.phase)
	}
}
