#!/usr/bin/env bash
# Recovery-reopen benchmark smoke: seeds a durable window on disk, then
# reopens it through the STR bulk-load recovery path (a clean shutdown, so
# the serial log replay delivers no record), asserting the row completes and
# lands in the trajectory file. Run from the repo root
# (`make bench-recovery`).
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$GO" run ./cmd/pskybench -ingest -ingest-short -ingest-recover-only \
    -label ci-recovery -out "$tmp/recovery.json" | tee "$tmp/recovery.log"

grep -q "recover/d=5/w=[0-9]*/fast" "$tmp/recovery.log" \
    || { echo "recovery smoke: fast recover row missing"; exit 1; }
grep -q '"label": *"ci-recovery"' "$tmp/recovery.json" \
    || { echo "recovery smoke: run not appended to trajectory file"; exit 1; }

echo "recovery smoke OK"
