package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestSummarizeCountsRefusedAndFailedAsMisses(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	limit := d(40)
	outs := []outcome{
		{Due: d(0), Sent: d(0), Done: d(10), Status: 200, Match: true},                      // ok, within
		{Due: d(0), Sent: d(5), Done: d(40), Status: 200, Match: true},                      // ok, exactly at the limit
		{Due: d(10), Sent: d(30), Done: d(55), Status: 200, Match: true},                    // ok, 45 ms from its due time: late
		{Due: d(0), Sent: d(0), Done: d(1), Status: http.StatusTooManyRequests},             // refused
		{Due: d(0), Sent: d(0), Done: d(1), Status: http.StatusServiceUnavailable},          // shed
		{Due: d(0), Sent: d(0), Done: d(1), Status: http.StatusGatewayTimeout},              // timed out
		{Due: d(0), Sent: d(0), Done: d(1), Status: http.StatusInternalServerError},         // failed
		{Due: d(0), Sent: d(0), Done: d(1), Err: errors.New("connection reset")},            // failed
		{Due: d(0), Sent: d(0), Done: d(2), Status: 200, Match: false},                      // wrong logits: failed
		{Due: d(0), Sent: d(0), Done: d(1), Status: 503, Err: errors.New("truncated body")}, // error wins over status
	}
	s := summarize(outs, limit)
	if s.Sent != 10 || s.OK != 3 || s.Refused != 3 || s.Failed != 4 {
		t.Fatalf("sent/ok/refused/failed = %d/%d/%d/%d, want 10/3/3/4", s.Sent, s.OK, s.Refused, s.Failed)
	}
	// Only answered-and-correct requests inside the limit meet it:
	// refused and failed requests count as sent and as misses.
	if s.WithinLimit != 2 {
		t.Errorf("within limit = %d, want 2", s.WithinLimit)
	}
	if len(s.LatMS) != 3 || s.LatMS[2] != 45 {
		t.Errorf("latencies %v: the third must run from its due time (45 ms), not its send time (25 ms)", s.LatMS)
	}
	if s.LagMS[2] != 20 {
		t.Errorf("lag of the late-fired request = %v ms, want 20", s.LagMS[2])
	}
	if s.Wall != d(55) {
		t.Errorf("wall = %v, want the last completion (55ms)", s.Wall)
	}
}

// stallServer answers /v1/predict with fixed logits after a delay.
func stallServer(t *testing.T, delay time.Duration, logits []float32) *listener {
	t.Helper()
	l, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		json.NewEncoder(w).Encode(predictReply{Logits: logits, BatchSize: 1})
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.shutdown)
	return l
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const delay = 30 * time.Millisecond
	logits := []float32{0.25, -1.5}
	l := stallServer(t, delay, logits)
	lt := &loadTarget{
		client: &http.Client{}, url: l.URL + "/v1/predict", contentType: "application/octet-stream",
		bodies: [][]byte{{0, 0, 0, 0}}, want: [][]float32{logits},
	}
	// Two full waves, all due at once: the second wave cannot be sent
	// until the first returns, and that wait is part of its latency.
	n := 2 * inflightCap
	outs := openLoop(context.Background(), lt, make([]time.Duration, n), make([]int, n))
	s := summarize(outs, time.Hour)
	if s.OK != n || s.Failed != 0 {
		t.Fatalf("ok/failed = %d/%d, want %d/0", s.OK, s.Failed, n)
	}
	lateSent, slow := 0, 0
	for _, o := range outs {
		if o.Sent-o.Due >= delay {
			lateSent++
			if o.Done-o.Due >= 2*delay {
				slow++
			}
		}
	}
	if lateSent < inflightCap {
		t.Errorf("%d requests were held back by the in-flight cap, want at least %d", lateSent, inflightCap)
	}
	if slow != lateSent {
		t.Errorf("%d of %d held-back requests have a latency that includes the hold", slow, lateSent)
	}
	if percentile(s.LagMS, 95) < ms(delay) {
		t.Errorf("lag p95 %.1f ms does not show the generator running late", percentile(s.LagMS, 95))
	}
}

func TestFireChecksLogitsBitForBit(t *testing.T) {
	logits := []float32{1, 2, 3}
	l := stallServer(t, 0, logits)
	lt := &loadTarget{
		client: &http.Client{}, url: l.URL + "/v1/predict", contentType: "application/json",
		bodies: [][]byte{[]byte(`{}`), []byte(`{}`)},
		want:   [][]float32{{1, 2, 3}, {1, 2, 3.0000002}},
	}
	start := time.Now()
	if o := lt.fire(context.Background(), start, 0, 0); !o.Match || o.Status != 200 || o.Done <= 0 {
		t.Errorf("identical logits: %+v", o)
	}
	if o := lt.fire(context.Background(), start, 1, 0); o.Match {
		t.Error("logits one ulp apart were accepted")
	}
}
