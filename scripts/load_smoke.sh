#!/usr/bin/env bash
# Load-harness smoke test: start a multi-tenant `pskyline -streams` host,
# drive a short fixed-rate open-loop pskyload sweep against it over HTTP,
# and then an in-process sweep, asserting both report complete accounting
# and that the serve-mode host exposes the windowed visibility-latency
# series and the flight recorder afterwards. Run from the repo root
# (`make load-smoke`).
set -euo pipefail

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:18090}
RATE=${RATE:-2000}
tmp=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/pskyline" ./cmd/pskyline
"$GO" build -o "$tmp/pskyload" ./cmd/pskyload

"$tmp/pskyline" -streams "bench:dims=2,window=2000,q=0.3" -http "$ADDR" \
    > "$tmp/out.log" 2> "$tmp/err.log" &
pid=$!

for _ in $(seq 1 100); do
    curl -fsS --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1 && break
    kill -0 "$pid" 2>/dev/null || { echo "pskyline exited early"; cat "$tmp/err.log"; exit 1; }
    sleep 0.1
done

# Short fixed-rate sweep over HTTP: open-loop, latency from scheduled arrival.
"$tmp/pskyload" -target "http://$ADDR" -stream bench -rates "$RATE" \
    -duration 1s -warmup 200ms -batch 8 -out "$tmp/bench.json" -label smoke \
    | tee "$tmp/load.log"
grep -q "open-loop" "$tmp/load.log" || { echo "missing open-loop note"; exit 1; }
grep -q '"mode": "http"' "$tmp/bench.json" || { echo "BAD trajectory"; cat "$tmp/bench.json"; exit 1; }
grep -q '"dropped": 0' "$tmp/bench.json" || { echo "smoke sweep dropped arrivals"; cat "$tmp/bench.json"; exit 1; }

fetch() { curl -fsS --max-time 5 "http://$ADDR$1"; }

# The loaded stream must now expose recent visibility quantiles and spans.
metrics=$(fetch /metrics)
for series in \
    'pskyline_visibility_latency_seconds{stream="bench",quantile="0.99"}' \
    'pskyline_ingest_apply_latency_seconds{stream="bench",quantile="0.5"}' \
    'pskyline_flight_spans_total{stream="bench"}'; do
    echo "$metrics" | grep -qF "$series" \
        || { echo "MISSING series: $series"; echo "$metrics" | head -40; exit 1; }
done
fetch /streams/bench/flight | grep -q '"recorded":' || { echo "BAD flight dump"; exit 1; }
fetch /buildinfo | grep -q '"go_version"' || { echo "BAD /buildinfo"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true

# In-process sweep; its rows land in the same trajectory and render as
# markdown with the monitor's own visibility quantiles filled in.
"$tmp/pskyload" -mode sync -rates "$RATE" -duration 500ms -warmup 100ms \
    -out "$tmp/bench.json" -label smoke-sync
"$tmp/pskyload" -render "$tmp/bench.json" | tee "$tmp/table.md"
grep -q '| http | on |' "$tmp/table.md" || { echo "render missing http row"; exit 1; }
grep -qE '^\| sync \| on \| .* \| [0-9]+\.[0-9]{3} \| [0-9]+\.[0-9]{3} \| [0-9]+ \|$' "$tmp/table.md" \
    || { echo "render missing tracked in-process row with visibility quantiles"; exit 1; }

echo "load smoke OK: open-loop sweep at $RATE elems/s over HTTP + in-process, visibility series and flight recorder healthy"
