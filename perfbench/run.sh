#!/usr/bin/env bash
# Runs one workload of the repository benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <serve_miss|serve_hot|compile_large> \
#       --seed N --seconds S --trace <0|1>
#
# Builds `pypmc` (the server under test, from the repository workspace)
# and the benchmark (its own workspace under perfbench/) into
# $CARGO_TARGET_DIR (default .bench_build), then runs the benchmark. Build
# output goes to stderr, so the last stdout line is the JSON result.
# Result documents, counts and traces go to $CARGO_TARGET_DIR/perfbench.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/Cargo.toml" || ! -f "$root/perfbench/Cargo.toml" ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
target="$CARGO_TARGET_DIR"
[[ "$target" = /* ]] || target="$root/$target"

cargo build --release --offline --quiet -p pypm --bin pypmc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ "$top" = "$root" ]]; then
    commit=$(git rev-parse HEAD)
fi

exec "$target/release/perfbench" "$@" \
    --pypmc "$target/release/pypmc" \
    --expected perfbench/expected.txt \
    --out "$target/perfbench" \
    --rustc "$(rustc -V)" \
    --commit "$commit"
