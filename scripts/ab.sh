#!/usr/bin/env bash
# A/B the working tree against a parent commit on one benchmark workload,
# or on all of them.
#
#   scripts/ab.sh <parent-ref> <workload>|all [pairs=10]
#   SECS=20 scripts/ab.sh HEAD~1 pair_stream
#
# Unpacks <parent-ref> (`git archive`) under .bench_build/ab/parent and
# builds its srmbench there (so the parent runs against its own crates/
# *and* its own srmbench/), builds the working tree's next to it, then runs
# <pairs> pairs of `srmbench --workload <workload>` — the same seed on both
# sides of a pair, odd pairs parent first, even pairs change first — and ends
# with `srmbench compare`, whose exit status is this script's: non-zero when
# a metric regressed, a run had failures, or sim_fig4's exact counts differ.
# `all` does that for each workload in turn (a change is judged on every
# metric of every workload, so measure them all before submitting) and fails
# if any comparison did. The run files stay under .bench_build/ab/ for a
# later look.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { echo "usage: scripts/ab.sh <parent-ref> <workload>|all [pairs=10]" >&2; exit 2; }
parent=$1
workload=$2
pairs=${3:-10}
secs=${SECS:-20}

root=$PWD/.bench_build/ab
tree=$root/parent
rev=$(git rev-parse --verify "$parent^{commit}")
rm -rf "$tree"
mkdir -p "$tree"
git archive "$rev" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT

CARGO_TARGET_DIR=$root/target-parent \
    cargo build --quiet --release --offline --manifest-path "$tree/srmbench/Cargo.toml"
CARGO_TARGET_DIR=$root/target-change \
    cargo build --quiet --release --offline --manifest-path srmbench/Cargo.toml
A=$root/target-parent/release/srmbench
B=$root/target-change/release/srmbench

run_pairs() {
    local workload=$1 out=$root/$1.$(git rev-parse --short "$rev").$$
    mkdir -p "$out"
    for i in $(seq 1 "$pairs"); do
        if (( i % 2 )); then order="A B"; else order="B A"; fi
        for side in $order; do
            "${!side}" --workload "$workload" --seed "$i" --seconds "$secs" \
                --out "$out/$side.jsonl" >/dev/null
            echo "ab: pair $i/$pairs $workload $side done" >&2
        done
    done
    echo "ab: A = $(git rev-parse --short "$rev"), B = working tree; runs in $out" >&2
    "$B" compare "$out/A.jsonl" "$out/B.jsonl"
}

if [ "$workload" = all ]; then
    status=0
    for w in $("$B" list | awk '/^workloads:/ {on=1; next} /^[^ ]/ {on=0} on {print $1}'); do
        run_pairs "$w" || status=$?
    done
    exit $status
fi
run_pairs "$workload"
