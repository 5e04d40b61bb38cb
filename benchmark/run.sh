#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#
# Without --workload every workload runs in turn. Each run prints every
# metric by name with its unit, checks the program's outputs, ends with one
# JSON line, and exits non-zero if a check failed. Result files and traces
# go to benchmark/out/. Run from the repository root or anywhere else: paths
# are resolved from this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# What is measured is the defaults: drop every knob the crates read.
unset TESS_KERNEL TESS_DECOMP TESS_THREADS TESS_TRACE TESS_TRACE_CAP TESS_TELEMETRY
for v in $(compgen -e | grep '^TESS_LOG' || true); do unset "$v"; done

# Build time is outside every metric. The target directory is the caller's
# CARGO_TARGET_DIR when set (relative to where the caller stands), else
# benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/tess-benchmark"

workload=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --workload)
        workload="${2:?--workload needs a name}"
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --out "$here/out" ${args[@]+"${args[@]}"}
fi

status=0
for w in insitu_stream clustered_batch service_query service_update post_voids; do
    "$bin" --workload "$w" --out "$here/out" ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
