#!/bin/sh
# integrity_smoke.sh — end-to-end smoke of the integrity layer, run by
# `make integrity-smoke` (part of `make ci`). Three phases:
#
#   1. golden capture: boot a clean snapea-serve, replay a fixed probe
#      request, and keep the bit-exact logits as the golden answer;
#   2. detect → quarantine → heal: boot the same server with an injected
#      one-bit weight flip (-fault-weight-bitflip 1 -fault-weight-flip-limit 1).
#      The startup canary catches the corrupted compile and quarantines
#      it before it serves; the heal loop recompiles (the fault budget is
#      spent, so the recompile is clean) and a strict all-200 load plus a
#      golden-match replay prove the healed server answers correctly —
#      no wrong 200 ever leaves the process, because the corrupted
#      compile was quarantined before its first request. metricscheck
#      -integrity validates the quarantine/heal accounting;
#   3. checksummed artifacts: a legacy params file fails snapea-model
#      -verify and is rejected by snapea-serve -require-checksums;
#      snapea-model -checksum blesses it atomically, after which both
#      accept it; a corrupted value then fails -verify again.
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
$GO build -o "$dir/snapea-model" ./cmd/snapea-model
$GO build -o "$dir/metricscheck" ./internal/tools/metricscheck

wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "integrity-smoke: server never bound an address" >&2
            exit 1
        fi
        kill -0 "$srv_pid" 2>/dev/null || { echo "integrity-smoke: server died at startup" >&2; exit 1; }
        sleep 0.1
    done
    cat "$1"
}

stop_server() {
    kill -TERM "$srv_pid"
    wait "$srv_pid"
    srv_pid=
}

# ---- Phase 1: golden capture from a clean server ---------------------
echo "integrity-smoke: phase 1 (golden capture)"
"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr1" \
    -models tinynet &
srv_pid=$!
addr=$(wait_addr "$dir/addr1")

# Deterministic dense probe body sized from /v1/models.
elems=$(curl -sf "http://$addr/v1/models" | sed 's/.*"input_elems"://; s/[,}].*//')
awk -v n="$elems" 'BEGIN {
    printf "{\"input\":["
    for (i = 0; i < n; i++) {
        v = ((i * 2654435761) % 1999) / 1000.0 - 1.0 + 0.0005
        printf "%s%.6f", (i ? "," : ""), v
    }
    printf "]}"
}' > "$dir/probe.json"

curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$dir/probe.json" \
    "http://$addr/v1/predict?model=tinynet" > "$dir/golden.body"
sed 's/.*"logits":\(\[[^]]*\]\).*/\1/' "$dir/golden.body" > "$dir/golden.logits"
[ -s "$dir/golden.logits" ] || { echo "integrity-smoke: no golden logits captured" >&2; exit 1; }
stop_server

# ---- Phase 2: detect -> quarantine -> heal -> no wrong 200 -----------
echo "integrity-smoke: phase 2 (quarantine and heal)"
"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr2" \
    -models tinynet \
    -fault-weight-bitflip 1 -fault-weight-flip-limit 1 -fault-seed 7 \
    -canary-every 50ms -scrub-interval 50ms -scrub-mbps -1 -heal-backoff 50ms \
    -metrics "$dir/integrity-metrics.json" &
srv_pid=$!
addr=$(wait_addr "$dir/addr2")

# Quarantine 503s are allowed while the heal is in flight; the run as a
# whole must succeed once the clean recompile swaps in.
"$dir/snapea-load" -url "http://$addr" -model tinynet -n 40 -c 4 \
    -retries 5 -allow 200,503 >/dev/null
# Healed: strict all-200.
"$dir/snapea-load" -url "http://$addr" -model tinynet -n 20 -c 4 \
    -retries 5 -allow 200 >/dev/null

# The healed answer must match the clean server's golden bit-for-bit.
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$dir/probe.json" \
    "http://$addr/v1/predict?model=tinynet" > "$dir/healed.body"
sed 's/.*"logits":\(\[[^]]*\]\).*/\1/' "$dir/healed.body" > "$dir/healed.logits"
if ! cmp -s "$dir/golden.logits" "$dir/healed.logits"; then
    echo "integrity-smoke: healed logits differ from golden" >&2
    diff "$dir/golden.logits" "$dir/healed.logits" >&2 || true
    exit 1
fi

# The quarantine is over: /readyz must not report it.
if curl -sf "http://$addr/readyz" | grep -q 'quarantined=true'; then
    echo "integrity-smoke: model still quarantined after heal" >&2
    exit 1
fi
stop_server

# The snapshot must show the full story: canary ran and failed,
# quarantine happened, heal happened — with coherent accounting.
"$dir/metricscheck" -integrity \
    -nonzero-runtime integrity.canary_runs,integrity.canary_failures,integrity.quarantines,integrity.heals \
    "$dir/integrity-metrics.json"

# ---- Phase 3: checksummed artifacts and -require-checksums -----------
echo "integrity-smoke: phase 3 (artifact checksums)"
cat > "$dir/params.json" <<'EOF'
{
  "network": "tinynet",
  "epsilon": 0.03,
  "base_accuracy": 0,
  "final_accuracy": 0,
  "predictive_layers": ["conv1"],
  "layers": {
    "conv1": [
      {"Th": 0.25, "N": 1}, {"Th": 0.25, "N": 1},
      {"Th": 0.25, "N": 1}, {"Th": 0.25, "N": 1},
      {"Th": 0.25, "N": 1}, {"Th": 0.25, "N": 1},
      {"Th": 0.25, "N": 1}, {"Th": 0.25, "N": 1}
    ]
  }
}
EOF

# Legacy artifact: -verify reports it (exit 1)...
if "$dir/snapea-model" -verify "$dir/params.json" >/dev/null; then
    echo "integrity-smoke: -verify accepted a legacy artifact" >&2
    exit 1
fi
# ...and a checksum-requiring server refuses to preload it (exit 1).
if "$dir/snapea-serve" -addr localhost:0 -models tinynet \
    -params "tinynet=$dir/params.json" -require-checksums \
    2>/dev/null; then
    echo "integrity-smoke: -require-checksums served a legacy artifact" >&2
    exit 1
fi

# Bless it, then both accept it.
"$dir/snapea-model" -checksum "$dir/params.json" >/dev/null
"$dir/snapea-model" -verify "$dir/params.json" >/dev/null
"$dir/snapea-serve" -addr localhost:0 -addr-file "$dir/addr3" \
    -models tinynet -params "tinynet=$dir/params.json" -require-checksums &
srv_pid=$!
addr=$(wait_addr "$dir/addr3")
"$dir/snapea-load" -url "http://$addr" -model tinynet -mode predictive \
    -n 10 -c 2 -retries 5 -allow 200 >/dev/null
stop_server

# Corrupt one parameter value behind the checksum block's back: caught.
sed 's/"Th": *0\.25/"Th": 0.26/' "$dir/params.json" > "$dir/params-corrupt.json"
if "$dir/snapea-model" -verify "$dir/params-corrupt.json" > "$dir/verify.out"; then
    echo "integrity-smoke: -verify missed a corrupted params value" >&2
    exit 1
fi
grep -q MISMATCH "$dir/verify.out" || {
    echo "integrity-smoke: -verify report lacks MISMATCH lines" >&2
    exit 1
}

echo "integrity-smoke: ok"
