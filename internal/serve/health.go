package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"snapea/internal/metrics"
)

// Supervision constants.
const (
	// breakerOpenFor is how long an open breaker refuses forwards before
	// it admits a probe; an unanswered probe forfeits its slot after it.
	breakerOpenFor = 2 * time.Second
	// breakerProbes consecutive successful probes close the breaker.
	breakerProbes = 2
	// guardWindow is how many audited forwards the guardrail remembers.
	guardWindow = 32
	// guardMinWindows is the convolution-window evidence the guardrail
	// needs before it judges the misprediction rate, so one unlucky
	// forward cannot trip it.
	guardMinWindows = 512
	// guardCooldown is how many forwards a degraded entry serves on its
	// exact fallback before it tries predictive execution again.
	guardCooldown = 16
	// scrubMBps bounds the scrubber's re-hash rate so scrubbing never
	// starves forwards of memory bandwidth.
	scrubMBps = 64
	// healBackoff is the delay between failed heal attempts, and the
	// Retry-After a quarantined entry sends.
	healBackoff = time.Second
)

// errOpen refuses a forward while the breaker is open, or while another
// request holds the probe slot. Its message is the 503's JSON error
// body, which clients already see.
var errOpen = errors.New("resilience: circuit open")

// phase is where an entry stands with its breaker and its integrity.
// The first three values are the serve.breaker_state encoding.
type phase uint8

const (
	serving     phase = iota // forwards run; consecutive failures count toward opening
	open                     // forwards are refused until breakerOpenFor has passed
	probing                  // one probe forward at a time; breakerProbes successes close
	quarantined              // an integrity alarm: no answer until the heal replaces the entry
)

var breakerNames = [...]string{"closed", "open", "half-open"}

// state is one (model, mode) entry's health. Only next changes it.
// The guardrail's verdict (degraded) is kept apart from the phase
// because both can hold at once: a degraded entry whose fallback
// forwards fail opens its breaker, and its probes run on the fallback.
type state struct {
	phase phase
	// was is the phase an alarm interrupted: a quarantined entry still
	// reports it as its breaker position.
	was phase
	// degraded: the guardrail found the misprediction rate over budget,
	// so forwards run on the exact fallback network.
	degraded bool
	// closing: the entry is retired (heal swap or shutdown). Admission
	// stops; requests already admitted are still answered.
	closing bool
	reason  string // quarantined: the first alarm's reason

	limit    int       // consecutive failed forwards that open the breaker; 0 never opens
	fails    int       // serving: consecutive failed forwards
	probes   int       // probing: consecutive successful probes
	probeOut bool      // probing: a probe holds the slot
	since    time.Time // open: when it opened; probing: when the probe took the slot

	budget float64 // tolerated misprediction rate; 0 leaves the entry unguarded
	held   int     // degraded: forwards served on the fallback since degrading
	window [guardWindow]audit
	head   int   // next window slot to overwrite
	sumW   int64 // windows over the remembered audits
	sumM   int64 // mispredicted windows over the remembered audits
}

// audit is one audited forward's convolution windows and the subset
// speculation wrongly zeroed.
type audit struct{ windows, mispred int64 }

type kind uint8

const (
	evAdmit    kind = iota // a request holding a run slot asks to run its forward
	evOK                   // its forward succeeded
	evFail                 // its forward failed: error, panic or watchdog abandon
	evAudit                // an audited predictive forward's windows and mispredictions
	evDegraded             // a forward was served on the exact fallback
	evAlarm                // the scrubber or the canary found corruption
	evRetire               // the entry leaves service
)

type event struct {
	kind             kind
	windows, mispred int64  // evAudit
	reason           string // evAlarm
}

// verdict is what a transition tells the request behind its event. A
// non-nil err refuses the request with retryAfter as the hint; fallback
// runs an admitted forward on the exact network. An evAlarm's verdict
// refuses exactly when the alarm began a quarantine.
type verdict struct {
	err        error
	retryAfter time.Duration
	fallback   bool
}

// next is the health transition function: the state after ev at now,
// and ev's verdict. It is pure; the table it implements is in
// DESIGN.md, "Health".
func next(s state, ev event, now time.Time) (state, verdict) {
	if s.phase == quarantined {
		switch ev.kind {
		case evAdmit, evOK:
			return s, s.shed()
		case evRetire:
			s.closing = true
		}
		return s, verdict{}
	}
	switch ev.kind {
	case evAdmit:
		switch s.phase {
		case open:
			if wait := breakerOpenFor - now.Sub(s.since); wait > 0 {
				return s, verdict{err: errOpen, retryAfter: wait}
			}
			s.phase, s.probes = probing, 0
			s.probeOut, s.since = true, now
		case probing:
			// One probe at a time; a probe whose outcome never arrives
			// forfeits the slot after breakerOpenFor.
			if s.probeOut && now.Sub(s.since) <= breakerOpenFor {
				return s, verdict{err: errOpen}
			}
			s.probeOut, s.since = true, now
		}
		return s, verdict{fallback: s.degraded}
	case evOK:
		switch s.phase {
		case serving:
			s.fails = 0
		case probing:
			s.probeOut = false
			if s.probes++; s.probes >= breakerProbes {
				s.phase, s.probes = serving, 0
			}
		}
		// open: the forward was admitted before the breaker opened; its
		// outcome is stale.
	case evFail:
		switch s.phase {
		case serving:
			if s.limit > 0 {
				if s.fails++; s.fails >= s.limit {
					s = s.opened(now)
				}
			}
		case probing:
			s = s.opened(now)
		}
	case evAudit:
		if s.budget <= 0 || s.degraded || ev.windows <= 0 {
			break
		}
		old := s.window[s.head]
		s.window[s.head] = audit{ev.windows, ev.mispred}
		s.head = (s.head + 1) % guardWindow
		s.sumW += ev.windows - old.windows
		s.sumM += ev.mispred - old.mispred
		if s.sumW >= guardMinWindows && float64(s.sumM) > s.budget*float64(s.sumW) {
			// Degrade and forget: recovering takes the cooldown, and
			// degrading again takes guardMinWindows of fresh evidence.
			s.degraded, s.held = true, 0
			s.window, s.head, s.sumW, s.sumM = [guardWindow]audit{}, 0, 0, 0
		}
	case evDegraded:
		if s.degraded {
			if s.held++; s.held >= guardCooldown {
				s.degraded, s.held = false, 0
			}
		}
	case evAlarm:
		if !s.closing {
			s.was, s.phase, s.reason = s.phase, quarantined, ev.reason
			return s, s.shed()
		}
	case evRetire:
		s.closing = true
	}
	return s, verdict{}
}

// opened is s with its breaker freshly open at now.
func (s state) opened(now time.Time) state {
	s.phase, s.since = open, now
	s.fails, s.probes, s.probeOut = 0, 0, false
	return s
}

// shed is a quarantined entry's answer to every request: a 503 whose
// Retry-After is the soonest a heal could be serving.
func (s state) shed() verdict {
	return verdict{err: fmt.Errorf("%w: %s", errQuarantined, s.reason), retryAfter: healBackoff}
}

// breaker is the breaker position s reports: 0 closed, 1 open,
// 2 half-open (the serve.breaker_state gauge's values).
func (s state) breaker() int {
	if s.phase == quarantined {
		return int(s.was)
	}
	return int(s.phase)
}

// health is an entry's state under its lock. The lock also orders
// admission against retirement, which is what lets the gate's drain
// wait for exactly the requests it admitted.
type health struct {
	mu    sync.Mutex
	s     state
	now   func() time.Time
	label metrics.Labels
}

// apply runs the events through next, in order, under one hold of the
// lock, exports what changed, and returns the first event's verdict.
func (h *health) apply(evs ...event) verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	var first verdict
	for i, ev := range evs {
		old := h.s
		var v verdict
		h.s, v = next(h.s, ev, now)
		publish(h.label, old, h.s)
		if i == 0 {
			first = v
		}
	}
	return first
}

func (h *health) snapshot() state {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s
}

// publish exports a transition: the serve.breaker_state,
// serve.degraded and integrity.quarantined gauges follow the state,
// and the event counters count the changes. The heal's counters are the
// registry's, since a heal replaces the entry rather than moving it.
func publish(lbl metrics.Labels, old, cur state) {
	if !metrics.Enabled() {
		return
	}
	if b := cur.breaker(); b != old.breaker() {
		metrics.RG("serve.breaker_state", lbl).Set(int64(b))
		metrics.RC("serve.breaker_transitions", lbl).Add(1)
		if cur.phase == open {
			metrics.RC("serve.breaker_opens", lbl).Add(1)
		}
	}
	if cur.degraded != old.degraded {
		if cur.degraded {
			metrics.RG("serve.degraded", lbl).Set(1)
			metrics.RC("serve.degrade_events", lbl).Add(1)
		} else {
			metrics.RG("serve.degraded", lbl).Set(0)
			metrics.RC("serve.recover_events", lbl).Add(1)
		}
	}
	if cur.phase == quarantined && old.phase != quarantined {
		metrics.RC("integrity.quarantines", lbl).Add(1)
		metrics.RG("integrity.quarantined", lbl).Set(1)
	}
}
