#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the inference serving
# subsystem, run by `make serve-smoke` (part of `make ci`):
#
#   1. build snapea-serve and snapea-load;
#   2. start the server on an ephemeral port with tinynet preloaded and
#      a -metrics snapshot armed;
#   3. fire a closed-loop run of 500 requests at concurrency 16;
#      snapea-load polls /readyz before starting (asserting the
#      not-ready → ready transition) and exits nonzero unless every
#      response is 200 or 429;
#   4. SIGTERM the server and wait for a clean drain (exit 0);
#   5. validate the serve counters in the metrics snapshot.
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

"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr" \
    -models tinynet -queue 128 \
    -metrics "$dir/serve-metrics.json" &
srv_pid=$!

i=0
while [ ! -s "$dir/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never bound an address" >&2
        exit 1
    fi
    kill -0 "$srv_pid" 2>/dev/null || { echo "serve-smoke: server died at startup" >&2; exit 1; }
    sleep 0.1
done
addr=$(cat "$dir/addr")

"$dir/snapea-load" -url "http://$addr" -model tinynet -n 500 -c 16 \
    -warmup 10 -allow 200,429 -out "$dir/load.json"

kill -TERM "$srv_pid"
wait "$srv_pid"
srv_pid=

$GO run ./internal/tools/metricscheck \
    -nonzero-runtime serve.requests,serve.batches,serve.compile_cache.misses,serve.tensor_pool.hits \
    "$dir/serve-metrics.json"

echo "serve-smoke: ok"
