#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the multi-replica cluster tier,
# run by `make cluster-smoke` (part of `make ci`):
#
#   1. build snapea-serve, snapea-gateway, and snapea-load;
#   2. start 3 snapea-serve replicas on ephemeral ports, then
#      snapea-gateway in front of them with a 0.1 hedge budget and a
#      -metrics snapshot armed;
#   3. measure a direct run against one replica, then the same run
#      through the gateway, and assert the gateway's p50 overhead is
#      under 1ms;
#   4. fire a longer run through the gateway and SIGTERM one replica
#      mid-run: zero-downtime drain means every accepted request still
#      answers 200 (the dying replica's in-flight work finishes, its
#      refusals fail over to siblings, probes eject it);
#   5. validate the gateway counters in the metrics snapshot: request
#      and routing counters recorded, the ejection fired, the metric
#      domains are sane, and hedges_fired/requests held the 0.1 budget.
#
# Set OUT=path to keep the gateway load summary after the run.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pids=
cleanup() {
    for pid in $pids; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$dir"
}
trap cleanup EXIT INT TERM

$GO build -o "$dir/snapea-serve" ./cmd/snapea-serve
$GO build -o "$dir/snapea-gateway" ./cmd/snapea-gateway
$GO build -o "$dir/snapea-load" ./cmd/snapea-load

for i in 1 2 3; do
    "$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr$i" \
        -models tinynet -queue 256 &
    eval "rep$i=\$!"
    pids="$pids $!"
done

wait_file() {
    j=0
    while [ ! -s "$1" ]; do
        j=$((j + 1))
        if [ "$j" -gt 100 ]; then
            echo "cluster-smoke: $2 never bound an address" >&2
            exit 1
        fi
        sleep 0.1
    done
}
for i in 1 2 3; do wait_file "$dir/addr$i" "replica $i"; done
a1=$(cat "$dir/addr1"); a2=$(cat "$dir/addr2"); a3=$(cat "$dir/addr3")

"$dir/snapea-gateway" -addr localhost:0 -addr-file "$dir/gwaddr" \
    -replicas "http://$a1,http://$a2,http://$a3" \
    -probe-interval 100ms -probe-failures 2 -hedge-budget 0.1 \
    -metrics "$dir/gw-metrics.json" &
gw_pid=$!
pids="$pids $gw_pid"
wait_file "$dir/gwaddr" "gateway"
gw=$(cat "$dir/gwaddr")

# Baseline: the same workload straight at one replica, then through the
# gateway. Both runs poll their target's /readyz first and warm up.
"$dir/snapea-load" -url "http://$a1" -model tinynet -n 300 -c 4 \
    -warmup 20 -allow 200,429 -out "$dir/direct.json"
"$dir/snapea-load" -url "http://$gw" -model tinynet -n 300 -c 4 \
    -warmup 20 -allow 200,429 -out "$dir/gateway.json"

p50() { sed -n 's/.*"p50_ms": \([0-9.eE+-]*\).*/\1/p' "$1" | head -1; }
direct_p50=$(p50 "$dir/direct.json")
gw_p50=$(p50 "$dir/gateway.json")
if ! awk -v g="$gw_p50" -v d="$direct_p50" 'BEGIN { exit !(g - d < 1.0) }'; then
    echo "cluster-smoke: gateway p50 ${gw_p50}ms vs direct ${direct_p50}ms: overhead >= 1ms" >&2
    exit 1
fi
echo "cluster-smoke: p50 direct ${direct_p50}ms, via gateway ${gw_p50}ms"

# Zero-downtime drain: kill one replica while a longer run is in flight.
# -allow 200 means a single failed accepted request fails the smoke —
# the gateway must absorb the death via drain handoff, failover, and
# probe ejection. The run has to outlast the sleep before the kill
# several times over: at the ~3,000 req/s the gateway serves tinynet,
# 2,000 requests were done in 0.7 s, the kill hit an idle fleet and no
# ejection was ever recorded.
"$dir/snapea-load" -url "http://$gw" -model tinynet -n 8000 -c 8 \
    -allow 200 -out "$dir/kill.json" &
load_pid=$!
sleep 0.7
kill -TERM "$rep1"
if ! wait "$load_pid"; then
    echo "cluster-smoke: requests failed while a replica drained" >&2
    exit 1
fi
wait "$rep1" || true

for pid in "$rep2" "$rep3"; do kill -TERM "$pid"; done
kill -TERM "$gw_pid"
for pid in "$rep2" "$rep3" "$gw_pid"; do wait "$pid" || true; done
pids=

$GO run ./internal/tools/metricscheck -gateway \
    -nonzero-runtime gateway.requests,gateway.routes,gateway.proxied,gateway.ejections \
    -max-ratio gateway.hedges_fired/gateway.requests=0.1 \
    "$dir/gw-metrics.json"

if [ -n "${OUT:-}" ]; then
    cp "$dir/kill.json" "$OUT"
    echo "cluster-smoke: load summary kept at $OUT"
fi
echo "cluster-smoke: ok"
