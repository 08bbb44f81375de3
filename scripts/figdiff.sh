#!/usr/bin/env bash
# Are the figures still the parent's, byte for byte?
#
#   scripts/figdiff.sh <parent-ref>
#
# Unpacks <parent-ref> (`git archive`) under .bench_build/ab/parent, as
# scripts/ab.sh does, builds `srm-experiments` on both sides, runs
# `srm-experiments all --quick --out DIR` on both and compares: `diff -rq`
# over the figure files, `cmp` over stdout. Exit status 0 only when both are
# identical — what a change that claims "no protocol decision moved" has to
# show, adaptive figures (fig13, fig14_*) included. The outputs stay under
# .bench_build/ab/figdiff/ for a later look.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { echo "usage: scripts/figdiff.sh <parent-ref>" >&2; exit 2; }

root=$PWD/.bench_build/ab
tree=$root/parent
out=$root/figdiff
rev=$(git rev-parse --verify "$1^{commit}")
rm -rf "$tree" "$out"
mkdir -p "$tree" "$out"
git archive "$rev" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT

CARGO_TARGET_DIR=$root/target-parent-figs \
    cargo build --quiet --release --offline --manifest-path "$tree/Cargo.toml" -p srm-experiments
cargo build --quiet --release --offline -p srm-experiments

"$root/target-parent-figs/release/srm-experiments" all --quick --out "$out/parent" \
    >"$out/parent.stdout" 2>/dev/null
target/release/srm-experiments all --quick --out "$out/change" \
    >"$out/change.stdout" 2>/dev/null

files=$(find "$out/parent" -type f | wc -l)
status=0
diff -rq "$out/parent" "$out/change" || status=1
cmp "$out/parent.stdout" "$out/change.stdout" || status=1
if [ $status -eq 0 ]; then
    echo "figdiff: $files figure files and stdout byte-identical to $(git rev-parse --short "$rev")"
else
    echo "figdiff: output differs from $(git rev-parse --short "$rev") (see $out)" >&2
fi
exit $status
