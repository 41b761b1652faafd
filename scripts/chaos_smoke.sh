#!/bin/sh
# chaos_smoke.sh — end-to-end chaos test of the serving resilience
# layer, run by `make chaos-smoke` (part of `make ci`). Three phases,
# each booting snapea-serve on an ephemeral port with a deterministic
# injected fault, driving it with snapea-load, SIGTERMing it, and
# validating the supervision metrics in the snapshot:
#
#   1. circuit breaker: a transient forward-error storm (six injected
#      failures) opens the breaker; clients back off per Retry-After,
#      half-open probes burn through the storm, and a final strict
#      all-200 load proves the breaker closed again — self-healing with
#      no restart;
#   2. watchdog/bulkhead: a stuck-kernel fault (10s injected delay vs a
#      300ms request deadline) wedges tinynet's first forward; the hung
#      request alone fails (504), lenet keeps serving throughout, and
#      tinynet's own next forward runs clean;
#   3. accuracy guardrail: a pathological predictive plan (Th so high
#      every window speculates to zero) blows the misprediction budget
#      on the first audited forward; the model degrades to exact
#      execution, serves through the cooldown, and recovers —
#      every response a 200 the whole way.
#
# Each phase ends with a SIGTERM drain (clean exit 0) and a
# metricscheck -resilience pass over the phase's metrics snapshot.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
srv_pid=
cleanup() {
    [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT INT TERM

$GO build -o "$dir/snapea-serve" ./cmd/snapea-serve
$GO build -o "$dir/snapea-load" ./cmd/snapea-load
$GO build -o "$dir/metricscheck" ./internal/tools/metricscheck

# wait_addr <addr-file>: block until the server writes its bound address.
wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "chaos-smoke: server never bound an address" >&2
            exit 1
        fi
        kill -0 "$srv_pid" 2>/dev/null || { echo "chaos-smoke: server died at startup" >&2; exit 1; }
        sleep 0.1
    done
    cat "$1"
}

# stop_server: SIGTERM and require a clean drain.
stop_server() {
    kill -TERM "$srv_pid"
    wait "$srv_pid"
    srv_pid=
}

# ---- Phase 1: circuit breaker opens, sheds load, and recovers --------
echo "chaos-smoke: phase 1 (circuit breaker)"
"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr1" \
    -models tinynet \
    -breaker-failures 3 -breaker-open 500ms -breaker-probes 1 \
    -fault-serve-err 1 -fault-serve-limit 6 \
    -metrics "$dir/chaos1.json" &
srv_pid=$!
addr=$(wait_addr "$dir/addr1")

# The storm: 500s from faulted forwards, 503s once the breaker opens.
# Clients honor Retry-After, so their retries double as half-open
# probes; the run must end with the storm absorbed.
"$dir/snapea-load" -url "http://$addr" -model tinynet -n 40 -c 4 \
    -retries 5 -allow 200,429,500,503 >/dev/null

# Self-healed: a strict all-200 load after the storm.
"$dir/snapea-load" -url "http://$addr" -model tinynet -n 8 -c 2 \
    -retries 5 -allow 200 >/dev/null

stop_server
"$dir/metricscheck" -resilience \
    -nonzero-runtime serve.requests,serve.batch_failures,serve.breaker_opens,serve.breaker_transitions,serve.breaker_rejects \
    "$dir/chaos1.json"

# ---- Phase 2: watchdog abandons a hung forward; bulkhead holds -------
echo "chaos-smoke: phase 2 (watchdog + bulkhead)"
"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr2" \
    -models tinynet,lenet \
    -request-timeout 300ms \
    -fault-serve-delay 10s -fault-serve-limit 1 -fault-serve-target tinynet/exact \
    -metrics "$dir/chaos2.json" &
srv_pid=$!
addr=$(wait_addr "$dir/addr2")

# Wedge tinynet: its first forward hangs on the injected 10s delay and
# must come back as a watchdog 504 at the 300ms deadline.
"$dir/snapea-load" -url "http://$addr" -model tinynet -n 1 -c 1 \
    -retries 0 -allow 504 >/dev/null

# The bulkhead: lenet serves normally while tinynet's abandoned forward
# is still sleeping off its injected delay.
"$dir/snapea-load" -url "http://$addr" -model lenet -n 30 -c 4 \
    -allow 200 >/dev/null

# The fault budget is spent and the abandoned forward gave its run slot
# back: tinynet's next forward is clean.
"$dir/snapea-load" -url "http://$addr" -model tinynet -n 4 -c 1 \
    -allow 200 >/dev/null

stop_server
"$dir/metricscheck" -resilience \
    -nonzero-runtime serve.requests,serve.watchdog_timeouts,serve.batch_failures \
    "$dir/chaos2.json"

# ---- Phase 3: accuracy guardrail degrades and recovers ---------------
echo "chaos-smoke: phase 3 (accuracy guardrail)"
# A pathological predictive plan for tinynet's conv1: Th = 1e6 with
# N = 1 makes every speculation window predict zero, so every truly
# positive window is a misprediction — far over any sane budget.
cat > "$dir/bad-params.json" <<'EOF'
{
  "network": "tinynet",
  "epsilon": 0.03,
  "base_accuracy": 0,
  "final_accuracy": 0,
  "predictive_layers": ["conv1"],
  "layers": {
    "conv1": [
      {"Th": 1000000, "N": 1}, {"Th": 1000000, "N": 1},
      {"Th": 1000000, "N": 1}, {"Th": 1000000, "N": 1},
      {"Th": 1000000, "N": 1}, {"Th": 1000000, "N": 1},
      {"Th": 1000000, "N": 1}, {"Th": 1000000, "N": 1}
    ]
  }
}
EOF
"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr3" \
    -models tinynet -params "tinynet=$dir/bad-params.json" \
    -mispredict-budget 0.05 -audit-every 1 -guard-window 4 -guard-cooldown 4 \
    -metrics "$dir/chaos3.json" &
srv_pid=$!
addr=$(wait_addr "$dir/addr3")

# Every response stays 200 through degrade → cooldown → recover: the
# guardrail trades MAC savings for accuracy, never availability.
"$dir/snapea-load" -url "http://$addr" -model tinynet -mode predictive \
    -n 40 -c 2 -allow 200 >/dev/null

stop_server
"$dir/metricscheck" -resilience \
    -nonzero-runtime serve.requests,serve.audit_batches,serve.audit_mispredictions,serve.degrade_events,serve.degraded_batches,serve.recover_events \
    "$dir/chaos3.json"

echo "chaos-smoke: ok"
