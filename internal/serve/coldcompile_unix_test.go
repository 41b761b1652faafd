//go:build unix

package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSlowCompileOutsideDeadline holds a cold predictive compile on its
// params file — a FIFO the test writes only after three request
// deadlines have passed — and requires the request to be answered 200
// with no failed forward on the breaker: the deadline starts once the
// model is compiled. At the parent the request was a watchdog 504.
func TestSlowCompileOutsideDeadline(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(tinyParams(t, dir, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "params.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{
		Models:         []string{"tinynet"},
		ParamsFiles:    map[string]string{"tinynet": fifo},
		RequestTimeout: 100 * time.Millisecond,
	})
	wrote := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		wrote <- os.WriteFile(fifo, data, 0o600)
	}()
	code, _, _ := postPredict(t, ts.URL, "tinynet", ModePredictive, jsonBody(t, tinyElems(t), 29).Bytes())
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("predict behind a 300 ms compile with a 100 ms deadline: status %d, want 200", code)
	}
	s.reg.mu.Lock()
	e := s.reg.entries[modelKey{Model: "tinynet", Mode: ModePredictive}]
	s.reg.mu.Unlock()
	if st := e.state(); st.fails != 0 || st.phase != serving {
		t.Fatalf("breaker after the slow compile's 200: %d failed forwards, phase %v", st.fails, st.phase)
	}
}
