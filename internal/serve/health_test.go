package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapea/internal/integrity"
	"snapea/internal/metrics"
	"snapea/internal/models"
	"snapea/internal/nn"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// fakeClock is an injectable health clock, so tests move time instead
// of sleeping through it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// fakeClockOn substitutes a fake clock for the health clock of every
// entry s compiles from now on.
func fakeClockOn(s *Server) *fakeClock {
	c := &fakeClock{now: time.Unix(1000, 0)}
	s.reg.now = c.Now
	return c
}

// enableMetrics turns metrics on from a clean registry for one test.
func enableMetrics(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	t.Cleanup(func() {
		metrics.Disable()
		metrics.Reset()
	})
}

// assertHealthMetrics checks the health metrics' domains in the runtime
// snapshot: serve.breaker_state is a breaker position (0 closed, 1 open,
// 2 half-open), the degraded and quarantined gauges are booleans, no
// health counter is negative, and heals <= quarantines <= scrub
// mismatches + canary failures (every heal follows a quarantine, every
// quarantine a detection).
func assertHealthMetrics(t *testing.T) {
	t.Helper()
	rt := metrics.Export(true).Runtime
	if rt == nil {
		t.Fatal("no runtime metrics section")
	}
	for _, g := range rt.Gauges {
		switch g.Name {
		case "serve.breaker_state":
			if g.Value < 0 || g.Value > 2 {
				t.Errorf("gauge %s%v = %d, want 0, 1 or 2", g.Name, g.Labels, g.Value)
			}
		case "serve.degraded", "integrity.quarantined":
			if g.Value != 0 && g.Value != 1 {
				t.Errorf("gauge %s%v = %d, want 0 or 1", g.Name, g.Labels, g.Value)
			}
		}
	}
	for _, c := range rt.Counters {
		if (strings.HasPrefix(c.Name, "serve.breaker_") || strings.HasPrefix(c.Name, "serve.degrade") ||
			strings.HasPrefix(c.Name, "serve.recover_") || strings.HasPrefix(c.Name, "integrity.")) && c.Value < 0 {
			t.Errorf("counter %s%v = %d, want >= 0", c.Name, c.Labels, c.Value)
		}
	}
	heals, quars := runtimeCounter("integrity.heals"), runtimeCounter("integrity.quarantines")
	detections := runtimeCounter("integrity.scrub_mismatches") + runtimeCounter("integrity.canary_failures")
	if heals > quars || quars > detections {
		t.Errorf("integrity accounting: heals %d, quarantines %d, detections %d; want heals <= quarantines <= detections",
			heals, quars, detections)
	}
}

// describe names a transition's result the way the DESIGN.md table
// does: the phase, the guardrail and closing marks, and the verdict.
func describe(s state, v verdict) string {
	out := [...]string{"serving", "open", "probing", "quarantined"}[s.phase]
	if s.degraded {
		out += "+degraded"
	}
	if s.closing {
		out += "+closing"
	}
	switch {
	case errors.Is(v.err, errOpen):
		out += fmt.Sprintf(" | refuse open %v", v.retryAfter)
	case errors.Is(v.err, errQuarantined):
		out += fmt.Sprintf(" | refuse quarantined %v", v.retryAfter)
	case v.err != nil:
		out += " | refuse " + v.err.Error()
	case v.fallback:
		out += " | fallback"
	}
	return out
}

// TestHealthTransitionTable walks every state × event through next with
// an injected clock and checks each result against the transition table
// in DESIGN.md, "Health". The states are the table's rows: each phase
// with the bookkeeping one event away from its next threshold (one more
// failure opens, one more probe closes, one more fallback forward
// recovers), plus the open interval's and the probe slot's time cases.
func TestHealthTransitionTable(t *testing.T) {
	now := time.Unix(1000, 0)
	base := state{limit: 2, fails: 1, budget: 0.05}
	with := func(f func(*state)) state { s := base; f(&s); return s }
	states := []struct {
		name string
		s    state
	}{
		{"serving", base},
		{"degraded", with(func(s *state) { s.degraded, s.held = true, guardCooldown-1 })},
		{"open", with(func(s *state) { s.phase, s.fails, s.since = open, 0, now.Add(-time.Second) })},
		{"open, interval over", with(func(s *state) { s.phase, s.fails, s.since = open, 0, now.Add(-breakerOpenFor) })},
		{"open+degraded, interval over", with(func(s *state) {
			s.phase, s.fails, s.since, s.degraded = open, 0, now.Add(-breakerOpenFor), true
		})},
		{"probing, slot free", with(func(s *state) { s.phase, s.fails, s.probes = probing, 0, breakerProbes-1 })},
		{"probing, probe out", with(func(s *state) { s.phase, s.fails, s.probeOut, s.since = probing, 0, true, now })},
		{"probing, probe lost", with(func(s *state) {
			s.phase, s.fails, s.probeOut, s.since = probing, 0, true, now.Add(-breakerOpenFor-time.Nanosecond)
		})},
		{"quarantined", with(func(s *state) { s.phase, s.reason = quarantined, "canary" })},
		{"closing", with(func(s *state) { s.closing = true })},
	}
	events := []struct {
		name string
		ev   event
	}{
		{"admit", event{kind: evAdmit}},
		{"ok", event{kind: evOK}},
		{"fail", event{kind: evFail}},
		{"audit over budget", event{kind: evAudit, windows: guardMinWindows, mispred: guardMinWindows}},
		{"degraded served", event{kind: evDegraded}},
		{"alarm", event{kind: evAlarm, reason: "scrub"}},
		{"retire", event{kind: evRetire}},
	}
	const shed = " | refuse quarantined 1s"
	want := map[string][]string{ // per state, one result per event above
		"serving": {"serving", "serving", "open", "serving+degraded", "serving",
			"quarantined" + shed, "serving+closing"},
		"degraded": {"serving+degraded | fallback", "serving+degraded", "open+degraded", "serving+degraded", "serving",
			"quarantined+degraded" + shed, "serving+degraded+closing"},
		"open": {"open | refuse open 1s", "open", "open", "open+degraded", "open",
			"quarantined" + shed, "open+closing"},
		"open, interval over": {"probing", "open", "open", "open+degraded", "open",
			"quarantined" + shed, "open+closing"},
		"open+degraded, interval over": {"probing+degraded | fallback", "open+degraded", "open+degraded", "open+degraded", "open+degraded",
			"quarantined+degraded" + shed, "open+degraded+closing"},
		"probing, slot free": {"probing", "serving", "open", "probing+degraded", "probing",
			"quarantined" + shed, "probing+closing"},
		"probing, probe out": {"probing | refuse open 0s", "probing", "open", "probing+degraded", "probing",
			"quarantined" + shed, "probing+closing"},
		"probing, probe lost": {"probing", "probing", "open", "probing+degraded", "probing",
			"quarantined" + shed, "probing+closing"},
		"quarantined": {"quarantined" + shed, "quarantined" + shed, "quarantined", "quarantined", "quarantined",
			"quarantined", "quarantined+closing"},
		"closing": {"serving+closing", "serving+closing", "open+closing", "serving+degraded+closing", "serving+closing",
			"serving+closing", "serving+closing"},
	}
	for _, st := range states {
		row, ok := want[st.name]
		if !ok || len(row) != len(events) {
			t.Fatalf("table row for %q missing or incomplete", st.name)
		}
		for i, e := range events {
			s, v := next(st.s, e.ev, now)
			if got := describe(s, v); got != row[i] {
				t.Errorf("%s × %s = %q, want %q", st.name, e.name, got, row[i])
			}
			if b := s.breaker(); b < 0 || b >= len(breakerNames) {
				t.Errorf("%s × %s reports breaker position %d", st.name, e.name, b)
			}
		}
	}

	// A quarantined entry keeps reporting the breaker position the alarm
	// interrupted, as /readyz and serve.breaker_state did before.
	s, _ := next(states[2].s, event{kind: evAlarm}, now)
	if got := breakerNames[s.breaker()]; got != "open" {
		t.Errorf("quarantined from open reports breaker %q, want open", got)
	}

	// From every state but closing and quarantined, traffic alone — wait
	// out the open interval, admit, succeed — returns the entry to
	// serving. (A quarantined entry returns through the heal's
	// replacement; TestHealthInterleavings covers that.)
	for _, st := range states {
		if st.s.closing || st.s.phase == quarantined {
			continue
		}
		s, clock := st.s, now
		for i := 0; s.phase != serving || s.degraded; i++ {
			if i == 2*(guardCooldown+breakerProbes) {
				t.Fatalf("%s: traffic did not return it to serving (now %s)", st.name, describe(s, verdict{}))
			}
			clock = clock.Add(breakerOpenFor)
			var v verdict
			if s, v = next(s, event{kind: evAdmit}, clock); v.err != nil {
				continue
			}
			s, _ = next(s, event{kind: evOK}, clock)
			if v.fallback {
				s, _ = next(s, event{kind: evDegraded}, clock)
			}
		}
	}
}

// runEvents applies events to s in order at now.
func runEvents(s state, now time.Time, evs ...event) state {
	for _, ev := range evs {
		s, _ = next(s, ev, now)
	}
	return s
}

func TestBreakerFullCycle(t *testing.T) {
	now := time.Unix(1000, 0)
	fail, ok, admit := event{kind: evFail}, event{kind: evOK}, event{kind: evAdmit}
	s := state{limit: 3}

	// Failures below the threshold keep admitting, and a success resets
	// the consecutive count.
	s = runEvents(s, now, fail, fail, ok, fail, fail)
	if _, v := next(s, admit, now); s.phase != serving || v.err != nil {
		t.Fatalf("after reset + 2 failures: %s, want serving and admitted", describe(s, v))
	}
	// The third consecutive failure opens.
	s = runEvents(s, now, fail)
	_, v := next(s, admit, now.Add(time.Millisecond))
	if s.phase != open || !errors.Is(v.err, errOpen) {
		t.Fatalf("after 3 failures: %s, want open and refused", describe(s, v))
	}
	if v.retryAfter <= 0 || v.retryAfter > breakerOpenFor {
		t.Fatalf("open refusal retryAfter = %v, want (0, %v]", v.retryAfter, breakerOpenFor)
	}
	// A stale success from a forward admitted before opening is ignored.
	if s = runEvents(s, now, ok); s.phase != open {
		t.Fatalf("stale success moved the breaker to %s", describe(s, verdict{}))
	}
	// After the open interval the first admission is the probe; a probe
	// failure reopens at once.
	now = now.Add(breakerOpenFor)
	if s, v = next(s, admit, now); s.phase != probing || v.err != nil {
		t.Fatalf("after the open interval: %s, want probing and admitted", describe(s, v))
	}
	if s = runEvents(s, now, fail); s.phase != open {
		t.Fatalf("failed probe: %s, want open", describe(s, verdict{}))
	}
	// breakerProbes consecutive probe successes close it.
	now = now.Add(breakerOpenFor)
	for i := 0; i < breakerProbes; i++ {
		if s.phase != open && s.phase != probing {
			t.Fatalf("closed after %d of %d probe successes", i, breakerProbes)
		}
		s = runEvents(s, now, admit, ok)
	}
	if s.phase != serving {
		t.Fatalf("after %d probe successes: %s, want serving", breakerProbes, describe(s, verdict{}))
	}
}

// TestBreakerDisabled: with no failure limit, failures never open the
// breaker and every forward is admitted.
func TestBreakerDisabled(t *testing.T) {
	s := state{}
	now := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		s = runEvents(s, now, event{kind: evFail})
	}
	if _, v := next(s, event{kind: evAdmit}, now); s.phase != serving || v.err != nil {
		t.Fatalf("unlimited breaker after 100 failures: %s", describe(s, v))
	}
}

// TestBreakerHalfOpenSingleProbe is the half-open admission contract:
// when the open interval elapses and a rush of concurrent requests
// races admission, exactly one wins the probe slot and every loser is
// refused at once with a zero hint (fast reject, not a queue). The slot
// frees on the probe's outcome and is forfeit after breakerOpenFor if
// the outcome never arrives.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	h := &health{s: state{limit: 1}, now: clock.Now}
	h.apply(event{kind: evFail})
	if got := h.snapshot().phase; got != open {
		t.Fatalf("phase %d, want open", got)
	}
	clock.Advance(breakerOpenFor)

	const racers = 16
	var admitted, refused atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch v := h.apply(event{kind: evAdmit}); {
			case v.err == nil:
				admitted.Add(1)
			case errors.Is(v.err, errOpen):
				refused.Add(1)
				if v.retryAfter != 0 {
					t.Errorf("loser retryAfter = %v, want 0 (fast reject)", v.retryAfter)
				}
			default:
				t.Errorf("admission verdict %v, want admitted or errOpen", v.err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted.Load() != 1 || refused.Load() != racers-1 {
		t.Fatalf("admitted %d refused %d, want exactly 1 probe and %d fast refusals",
			admitted.Load(), refused.Load(), racers-1)
	}

	// The slot stays held until the probe's outcome arrives.
	if v := h.apply(event{kind: evAdmit}); !errors.Is(v.err, errOpen) {
		t.Fatalf("admission with the probe out = %v, want errOpen", v.err)
	}
	h.apply(event{kind: evOK})
	if v := h.apply(event{kind: evAdmit}); v.err != nil {
		t.Fatalf("second probe refused (%v) after the first freed the slot", v.err)
	}
	if v := h.apply(event{kind: evAdmit}); !errors.Is(v.err, errOpen) {
		t.Fatalf("admission with the second probe out = %v, want errOpen", v.err)
	}
	h.apply(event{kind: evOK})
	if got := h.snapshot().phase; got != serving {
		t.Fatalf("phase %d after %d probe successes, want serving", got, breakerProbes)
	}

	// A probe whose outcome never arrives forfeits the slot after
	// breakerOpenFor, so a dropped probe cannot wedge the breaker.
	h.apply(event{kind: evFail})
	clock.Advance(breakerOpenFor)
	if v := h.apply(event{kind: evAdmit}); v.err != nil {
		t.Fatalf("probe refused: %v", v.err)
	}
	clock.Advance(breakerOpenFor + time.Nanosecond)
	if v := h.apply(event{kind: evAdmit}); v.err != nil {
		t.Fatalf("admission after a lost probe = %v, want the slot taken over", v.err)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	h := &health{s: state{limit: 2}, now: clock.Now}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if v := h.apply(event{kind: evAdmit}); v.err == nil {
					if j%3 == 0 {
						h.apply(event{kind: evFail})
					} else {
						h.apply(event{kind: evOK})
					}
				}
				if j%50 == 0 {
					clock.Advance(breakerOpenFor)
				}
				_ = h.snapshot()
			}
		}()
	}
	wg.Wait()
	if p := h.snapshot().phase; p != serving && p != open && p != probing {
		t.Fatalf("phase corrupted: %d", p)
	}
}

func TestGuardrailDegradeAndRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	audit := func(w, m int64) event { return event{kind: evAudit, windows: w, mispred: m} }
	s := state{budget: 0.10}

	// Below guardMinWindows nothing trips.
	if s = runEvents(s, now, audit(guardMinWindows/2, 10)); s.degraded {
		t.Fatal("degraded below guardMinWindows")
	}
	// Traffic within budget: 30 of 768 windows, 3.9 %.
	if s = runEvents(s, now, audit(guardMinWindows, 20)); s.degraded {
		t.Fatal("degraded within budget")
	}
	if s.sumW != 3*guardMinWindows/2 || s.sumM != 30 {
		t.Fatalf("window holds %d of %d windows, want 30 of %d", s.sumM, s.sumW, 3*guardMinWindows/2)
	}
	// One bad forward pushes the window over budget: 230 of 1280, 18 %.
	if s = runEvents(s, now, audit(guardMinWindows, 200)); !s.degraded {
		t.Fatal("not degraded after the budget was exceeded with enough evidence")
	}
	// Audits while degraded are ignored.
	if s = runEvents(s, now, audit(1000, 0)); !s.degraded || s.sumW != 0 {
		t.Fatal("an audit while degraded changed the state")
	}
	// Recovery after guardCooldown forwards served on the fallback.
	for i := 0; i < guardCooldown-1; i++ {
		s = runEvents(s, now, event{kind: evDegraded})
	}
	if !s.degraded {
		t.Fatal("recovered before the cooldown elapsed")
	}
	if s = runEvents(s, now, event{kind: evDegraded}); s.degraded {
		t.Fatal("still degraded after the cooldown")
	}
	// Hysteresis: the window was cleared, so a bad but small audit
	// cannot re-trip before guardMinWindows of fresh evidence.
	if s = runEvents(s, now, audit(guardMinWindows/2, guardMinWindows/2)); s.degraded {
		t.Fatal("re-degraded without guardMinWindows of fresh evidence")
	}
	if s = runEvents(s, now, audit(guardMinWindows/2, guardMinWindows/2)); !s.degraded {
		t.Fatal("not re-degraded once fresh evidence exceeded the budget")
	}
}

func TestGuardrailWindowSlides(t *testing.T) {
	now := time.Unix(1000, 0)
	s := state{budget: 0.5}
	// A fallback forward while healthy changes nothing.
	s = runEvents(s, now, event{kind: evDegraded})
	// Fill the window at 25 % (under budget), then slide those audits
	// out with clean ones: the evicted history must stop counting.
	for i := 0; i < guardWindow; i++ {
		s = runEvents(s, now, event{kind: evAudit, windows: 16, mispred: 4})
	}
	if s.degraded {
		t.Fatal("degraded at 25 % against a 50 % budget")
	}
	for i := 0; i < guardWindow; i++ {
		s = runEvents(s, now, event{kind: evAudit, windows: 16})
	}
	if s.sumM != 0 || s.sumW != 16*guardWindow {
		t.Fatalf("after sliding out the bad audits: %d of %d windows, want 0 of %d", s.sumM, s.sumW, 16*guardWindow)
	}
}

// TestGuardrailDisabled: an entry without a budget is never degraded,
// however bad its audits.
func TestGuardrailDisabled(t *testing.T) {
	now := time.Unix(1000, 0)
	s := runEvents(state{}, now, event{kind: evAudit, windows: guardMinWindows, mispred: guardMinWindows})
	if _, v := next(s, event{kind: evAdmit}, now); s.degraded || v.fallback {
		t.Fatalf("unguarded entry degraded: %s", describe(s, v))
	}
}

// stepLayer parks every forward until the test releases it with a
// verdict: true fails the forward (a panic the gate answers with a
// 500), false lets it finish with every logit set to mark, so a 200
// says which network answered. entered counts the forwards that have
// arrived; the test counts its own releases, so the difference is
// exact the moment a release's send returns.
type stepLayer struct {
	release chan bool
	entered atomic.Int64
	mark    float32
}

func (l *stepLayer) Forward(ins []*tensor.Tensor) *tensor.Tensor {
	l.entered.Add(1)
	if <-l.release {
		panic("test: injected forward failure")
	}
	out := tensor.New(l.OutShape([]tensor.Shape{ins[0].Shape()}))
	for i := range out.Data() {
		out.Data()[i] = l.mark
	}
	return out
}

func (l *stepLayer) OutShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{N: ins[0].N, C: 10, H: 1, W: 1}
}

// stepEntry installs a ready tinynet/exact entry whose forwards park in
// a stepLayer. The entry is guarded (the same parked network is its
// fallback), opens after two consecutive failures, and has a canary
// that always fails, so the test raises alarms through a real detection.
func stepEntry(t *testing.T, s *Server, now func() time.Time) (*entry, *stepLayer) {
	t.Helper()
	m, err := models.Build("tinynet", models.Options{Seed: 1, SkipInit: true})
	if err != nil {
		t.Fatal(err)
	}
	l := &stepLayer{release: make(chan bool), mark: 7}
	g := nn.NewGraph()
	g.Add("step", l, nn.InputName)
	net := snapea.CompileExact(&models.Model{Name: "step", Graph: g, InputShape: m.InputShape})
	e := newEntry(modelKey{Model: "tinynet", Mode: ModeExact})
	e.net, e.fallback, e.inShape, e.classes = net, net, m.InputShape, 10
	e.openGate(s.pool, 64, state{limit: 2, budget: 0.05}, now)
	e.canary = integrity.NewCanary(e.label, []float32{0}, func() []float32 { return []float32{1} })
	close(e.ready)
	s.reg.mu.Lock()
	s.reg.entries[e.key] = e
	s.reg.mu.Unlock()
	return e, l
}

// TestHealthInterleavings is a randomised walk over one entry's life:
// requests arrive and park, parked forwards are released to succeed or
// fail, audits blow the budget, the clock passes the open interval, a
// canary alarm quarantines the entry and its heal swaps in a fresh
// compile, and the walk ends with a recovery and a drain. After every
// step the test waits until each started request is parked, waiting for
// a slot, or answered, and it checks three properties:
//   - a quarantined entry never answers 200: once the alarm is raised,
//     no 200 carries the parked network's logits;
//   - every admitted request is answered, through the drain too;
//   - from wherever the walk stopped, traffic (and for a quarantine, the
//     heal) returns the model to serving.
func TestHealthInterleavings(t *testing.T) {
	seeds, steps := 24, 60
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { walkHealth(t, int64(seed), steps) })
	}
}

func walkHealth(t *testing.T, seed int64, steps int) {
	enableMetrics(t)
	rng := rand.New(rand.NewSource(seed))
	clock := &fakeClock{now: time.Unix(1000, 0)}
	s := New(Config{RequestTimeout: -1, ScrubInterval: -1, CanaryEvery: -1})
	s.reg.now = clock.Now
	e, l := stepEntry(t, s, clock.Now)
	key := e.key
	body := jsonBody(t, tinyElems(t), 5).Bytes()

	type answer struct {
		code   int
		logits []float32
	}
	var (
		mu      sync.Mutex
		answers []answer
		wg      sync.WaitGroup
		started int
	)
	answered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(answers)
	}
	released := 0
	parked := func() int { return int(l.entered.Load()) - released }
	release := func(fail bool) {
		l.release <- fail
		released++
	}
	start := func() {
		started++
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict?model=tinynet", bytes.NewReader(body)))
			a := answer{code: rec.Code}
			if rec.Code == http.StatusOK {
				var pr predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
					t.Errorf("decode 200 body: %v", err)
				}
				a.logits = pr.Logits
			}
			mu.Lock()
			answers = append(answers, a)
			mu.Unlock()
		}()
	}
	// settle waits until every started request is parked in the layer,
	// holds a waiting place, or has its answer.
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for parked()+len(e.waiting)+answered() != started {
			if time.Now().After(deadline) {
				t.Fatalf("requests never settled: %d started, %d parked, %d waiting, %d answered",
					started, parked(), len(e.waiting), answered())
			}
			runtime.Gosched()
		}
	}
	current := func() *entry {
		s.reg.mu.Lock()
		defer s.reg.mu.Unlock()
		return s.reg.entries[key]
	}
	alarmAt := -1
	for i := 0; i < steps; i++ {
		switch a := rng.Intn(12); {
		case a < 4:
			if started-answered() < 8 {
				start()
			}
		case a < 7 && parked() > 0:
			release(false)
		case a < 9 && parked() > 0:
			release(true)
		case a == 9:
			e.h.apply(event{kind: evAudit, windows: guardMinWindows, mispred: guardMinWindows})
		case a == 10:
			clock.Advance(breakerOpenFor)
		case a == 11 && alarmAt < 0 && rng.Intn(3) == 0:
			if err := e.canary.Check(); err != nil {
				alarmAt = answered()
				if e.alarm("canary: " + err.Error()) {
					go s.reg.heal(e)
				}
			}
		}
		settle()
	}
	if alarmAt >= 0 {
		if got := e.state().phase; got != quarantined {
			t.Fatalf("alarmed entry in phase %d, want quarantined", got)
		}
	}

	// Recovery: let every parked forward finish, wait for the heal if
	// the entry was quarantined, then send traffic one request at a time
	// until the model serves healthy again.
	for parked() > 0 {
		release(false)
		settle()
	}
	if alarmAt >= 0 {
		awaitTrue(t, 10*time.Second, "the heal swap", func() bool { return current() != e })
	}
	for i := 0; ; i++ {
		if st := current().state(); st.phase == serving && !st.degraded {
			break
		}
		if i == 2*(guardCooldown+breakerProbes) {
			t.Fatalf("model did not return to serving: %s", describe(current().state(), verdict{}))
		}
		clock.Advance(breakerOpenFor)
		start()
		settle()
		for parked() > 0 {
			release(false)
			settle()
		}
	}

	// Drain with requests parked: new work is refused, the parked
	// requests are answered, and Close returns only after.
	held := 0
	if current() == e {
		held = rng.Intn(3)
		for j := 0; j < held; j++ {
			start()
			settle()
		}
	}
	s.BeginDrain()
	start()
	settle()
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for j := 0; j < held; j++ {
		release(false)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the parked requests were released")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d requests never answered", started-answered(), started)
	}
	if alarmAt >= 0 {
		awaitTrue(t, 10*time.Second, "the heal to finish", func() bool {
			return runtimeCounter("integrity.heals") == runtimeCounter("integrity.quarantines")
		})
	}

	for i, a := range answers {
		switch a.code {
		case http.StatusOK, http.StatusInternalServerError, http.StatusServiceUnavailable:
		default:
			t.Errorf("answer %d: status %d", i, a.code)
		}
		if a.code == http.StatusOK && i >= alarmAt && alarmAt >= 0 && a.logits[0] == l.mark {
			t.Errorf("answer %d: a 200 from the quarantined entry", i)
		}
	}
	if last := answers[len(answers)-1-held]; last.code != http.StatusServiceUnavailable {
		t.Errorf("request after BeginDrain: status %d, want 503", last.code)
	}
	assertHealthMetrics(t)
}

// TestForwardFinishingAfterQuarantineIsRefused: a forward admitted
// before its entry was quarantined and finishing after is answered with
// the quarantine's 503, not with what the corrupted network computed.
func TestForwardFinishingAfterQuarantineIsRefused(t *testing.T) {
	s, ts := testServer(t, Config{RequestTimeout: -1, ScrubInterval: -1, CanaryEvery: -1})
	e, l := stepEntry(t, s, time.Now)
	body := jsonBody(t, tinyElems(t), 5).Bytes()

	got := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/predict?model=tinynet", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			resp = nil
		}
		got <- resp
	}()
	awaitTrue(t, 10*time.Second, "the forward to park", func() bool { return l.entered.Load() == 1 })
	if !e.alarm("test: corruption") {
		t.Fatal("alarm did not begin a quarantine")
	}
	l.release <- false
	resp := <-got
	if resp == nil {
		t.FailNow()
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Snapea-Quarantined") != "1" {
		t.Fatalf("forward finishing after the quarantine: status %d, X-Snapea-Quarantined %q; want 503 and 1",
			resp.StatusCode, resp.Header.Get("X-Snapea-Quarantined"))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1 (the heal backoff)", ra)
	}
}
