#!/usr/bin/env bash
# CPU-profile one benchmark workload with perf(1).
#
# Usage: [SECS=10] scripts/profile.sh [WORKLOAD]
#
#   WORKLOAD         an `srmbench list` workload (default: pair_stream)
#
# Records `srmbench --workload WORKLOAD` under `perf record` with DWARF call
# graphs, prints the hottest frames, and — when a FlameGraph toolchain
# (stackcollapse-perf.pl / flamegraph.pl) is on PATH — renders
# target/profile/flame.svg.
#
# Degrades gracefully: containers and locked-down kernels often lack
# perf(1) or forbid perf_event_open; in that case this prints what to
# install and exits 0 so calling scripts never break. The fallback for
# perf-less environments is the benchmark's own instrumentation:
# `srmbench --workload WORKLOAD --trace 1` prints the per-layer rows
# (runtime.recv_batch_mean, runtime.queue_p50_us, ...) that expose most
# datapath regressions.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v perf >/dev/null 2>&1; then
  cat >&2 <<'EOF'
profile: perf(1) not found on PATH; skipping CPU profile.

  To profile for real, install linux-tools for your kernel (e.g.
  `apt install linux-tools-$(uname -r)`) and re-run. Until then, the
  datapath's built-in instrumentation covers the common cases:

    cargo run -q --release --offline --manifest-path srmbench/Cargo.toml -- \
        --workload pair_stream --trace 1

  prints the per-layer rows (srmbench/README.md) — runtime.recv_batch_mean
  collapsing toward 1 means the batching layer degenerated to one syscall
  per frame; runtime.queue_p50/p99_us is the recv-to-reactor wait.
EOF
  exit 0
fi

cargo build --release --offline --manifest-path srmbench/Cargo.toml

OUT_DIR=target/profile
mkdir -p "$OUT_DIR"
DATA="$OUT_DIR/perf.data"

echo "== perf record (srmbench ${1:-pair_stream}, DWARF call graphs) =="
# 997 Hz: prime sampling rate, avoids lockstep with periodic timers.
perf record -F 997 -g --call-graph dwarf -o "$DATA" -- \
  srmbench/target/release/srmbench --workload "${1:-pair_stream}" --seconds "${SECS:-10}"

echo "== hottest frames =="
perf report -i "$DATA" --stdio --percent-limit 1 | head -60

if command -v stackcollapse-perf.pl >/dev/null 2>&1 \
  && command -v flamegraph.pl >/dev/null 2>&1; then
  echo "== flamegraph =="
  perf script -i "$DATA" | stackcollapse-perf.pl | flamegraph.pl \
    > "$OUT_DIR/flame.svg"
  echo "profile: wrote $OUT_DIR/flame.svg"
else
  echo "profile: flamegraph.pl not on PATH; raw data at $DATA" \
    "(render later with: perf script -i $DATA | stackcollapse-perf.pl | flamegraph.pl)"
fi
