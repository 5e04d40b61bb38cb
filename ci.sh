#!/usr/bin/env sh
# Continuous-integration gate (no forge runner in this environment; run
# locally or from any scheduler). Fails on the first broken step.
#
#   ./ci.sh            full gate: every stage below, with a timing summary
#   ./ci.sh full       same
#   ./ci.sh quick      build + test + fmt + clippy (no release suites)
#   ./ci.sh <stage>..  run the named stage(s) only, e.g. ./ci.sh memory obs
#
# Stages: build test ghost kernel trace service decomp memory obs benchmark
#         fmt clippy
#
# Timing is the benchmark stage's job (BENCHMARK.json); every other stage
# gates on bit-identity, oracles and deterministic work counters.
#
# Everything runs offline: external dependencies resolve to the vendored
# shims under crates/shims/ (see crates/shims/README.md).
set -eu

# ---- stage timing ----------------------------------------------------------
TIMING_LOG="${TMPDIR:-/tmp}/ci-stage-times.$$"
: > "$TIMING_LOG"
CUR_STAGE=""
CUR_START=0
trap 'print_summary' EXIT

print_summary() {
    status=$?
    # A stage that died mid-flight (errexit) never logged its row; add it.
    if [ "$status" -ne 0 ] && [ -n "$CUR_STAGE" ]; then
        printf '%s\t%s\t%s\n' "$CUR_STAGE" "$(($(date +%s) - CUR_START))" "FAILED" >> "$TIMING_LOG"
    fi
    if [ -s "$TIMING_LOG" ]; then
        echo
        echo "==> stage timing summary"
        awk -F'\t' '{ printf "    %-10s %6ss  %s\n", $1, $2, $3 }' "$TIMING_LOG"
    fi
    rm -f "$TIMING_LOG"
    [ "$status" -eq 0 ] || echo "==> CI FAILED"
}

run_stage() {
    CUR_STAGE="$1"
    CUR_START=$(date +%s)
    # The stage must NOT run as an `if`/`&&`/`||` condition: a tested
    # context suppresses errexit inside the whole function body, so in a
    # multi-command stage only the last command's status would be checked.
    # Called plainly, the first failing command aborts the script and the
    # EXIT trap records the FAILED row for the summary table.
    "stage_$CUR_STAGE"
    printf '%s\t%s\t%s\n' "$CUR_STAGE" "$(($(date +%s) - CUR_START))" "ok" >> "$TIMING_LOG"
    CUR_STAGE=""
}

# ---- stages ----------------------------------------------------------------

stage_build() {
    echo "==> [build] cargo build --release (workspace)"
    cargo build --release --workspace
}

stage_test() {
    echo "==> [test] cargo test -q (workspace)"
    cargo test -q --workspace
}

stage_ghost() {
    echo "==> [ghost] rank-determinism suite at 8 ranks (release)"
    # The cross-rank ghost invariants (bit-identical merged mesh at 1/2/4/8
    # ranks, adaptive certification) are cheap in release mode and guard the
    # exchange protocol; run them explicitly so optimized codegen is covered.
    cargo test --release -q -p meshing-universe --test ghost_adaptive
}

stage_kernel() {
    echo "==> [kernel] kernel vs brute-force oracle (release)"
    # The cell kernel must produce the bits of clipping every cell by every
    # particle in canonical order — across 1/2/4/8 ranks, pool widths,
    # incremental re-tessellation over adaptive rounds and explicit+adaptive
    # ghost modes, on jittered points and the exact lattice — keep
    # kept-incomplete cells bit-stable across rank counts, and stay inside
    # the pinned candidates/cell and sorted/cell budgets (with the
    # support-function / f32 rejects firing) and the mesh digest recorded
    # when vertices became named by their planes; the adversarial corpus must agree
    # between 1 and 4 ranks; a warm kernel must stay inside its
    # allocations-per-cell budget. The stream and kernel unit oracles (the
    # exact emission sequence under shrinking bounds, the 400 wall-hugging
    # cases) run under optimised codegen too, and so does the geometry
    # crate: the polyhedron unit tests, the clip-vs-quickhull proptests and
    # the clip against the face-loop reference it replaced (same faces,
    # neighbours and distinct vertices, volume and area to 1e-11).
    cargo test --release -q -p geometry &&
        cargo test --release -q -p tess --lib -- grid:: cell:: &&
        cargo test --release -q -p meshing-universe --test kernel_equivalence &&
        cargo test --release -q -p meshing-universe --test adversarial_corpus &&
        cargo test --release -q -p meshing-universe --test kernel_allocations
}

stage_trace() {
    echo "==> [trace] 4-rank traced run, Chrome-trace validation, <10% overhead"
    # Runs the small Table II workload untraced and under TESS_TRACE=full, asserts
    # the traced mesh is bit-identical and the wall-clock overhead stays under
    # 10%, and validates the exported Chrome-trace JSON (parses, balanced B/E
    # pairs per track, monotonic timestamps). Artifact:
    # bench-out/trace_np16_r4.trace.json (openable at ui.perfetto.dev).
    TESS_THREADS=4 cargo run --release -q -p bench-harness --bin trace_export
}

stage_service() {
    echo "==> [service] query-oracle + snapshot-consistency suites (release)"
    # The resident mesh service: batched point lookups vs a brute-force
    # nearest-seed oracle (exact f64, canonical tie-breaks, periodic images),
    # box/region extraction vs full-cell filters with 1e-9 volume conservation,
    # raced queries matching exactly one epoch's oracle mesh, and writer-epoch
    # × reader-thread stress with exactly-once request-id accounting, and
    # incremental epochs (cells carried from the previous snapshot) encoding
    # byte-identical to a from-scratch tessellation after every update. The
    # service and block unit tests (the box/region site index on degenerate
    # and infinite boxes, the moved-set ball test across periodic seams) run
    # under optimised codegen too.
    cargo test --release -q -p tess --lib -- service:: block:: &&
        cargo test --release -q -p meshing-universe --test service_oracle &&
        cargo test --release -q -p meshing-universe --test service_property &&
        cargo test --release -q -p meshing-universe --test service_stress &&
        cargo test --release -q -p meshing-universe --test service_epochs &&
        # End-to-end smoke of the tess-serve binary's scripted query/update loop.
        cargo run --release -q -p tess --bin tess-serve -- --box 8 --n 200 --demo
}

stage_decomp() {
    echo "==> [decomp] kd equivalence, voids + FOF labeling, suites under TESS_DECOMP=kd"
    # The scheme-polymorphic decomposition: (1) the dedicated equivalence
    # matrix proves the merged mesh is bit-identical between the regular grid
    # and the particle-balanced k-d tree across 1/2/4/8 ranks and
    # explicit+adaptive ghosts; (2) the rank-determinism, kernel-oracle,
    # service-oracle, service-property and service-epoch suites rerun with
    # every decomposition built as a k-d tree (its cuts are fixed at spawn,
    # so incremental epochs must carry cells the same way, and point
    # lookups search uneven per-block site grids), so all of their
    # invariants hold on irregular block geometry too;
    # (3) the one distributed-components primitive: void labeling equals
    # the serial union-find at 1/2/3/4/8 ranks on regular and k-d blocks,
    # FOF halos equal a brute-force periodic FOF at 1/2/4/8 ranks, and a
    # halo chained through all 8 blocks sends as many messages as a compact
    # one (the primitive's and the halo finder's unit oracles run too, and
    # Minkowski's, which include two calls on one mesh returning the same
    # bits and cells touching only along an edge or at a vertex); the
    # vertex-numbered Minkowski functionals equal a position-keyed oracle
    # on one block, on 8 fixed-ghost blocks of the TESS_DECOMP scheme and
    # on 8 adaptive k-d blocks, so the voids suite reruns under
    # TESS_DECOMP=kd with the rest. The equivalence suite also pins rank
    # imbalance on the clustered corpus at 8 ranks: regular >=3.0, k-d +
    # weighted assignment <=1.25. (4) The simulation's particles after 20
    # steps are the same bits at 1/2/3/4/8 ranks on regular and k-d blocks
    # (the suite runs both schemes itself) and equal the serial PM stepper;
    # an in-situ run streams the same blocks at 1 and 2 ranks.
    cargo test --release -q -p meshing-universe --test decomposition_equivalence &&
        cargo test --release -q -p meshing-universe --test sim_determinism &&
        cargo test --release -q -p meshing-universe --test voids_pipeline &&
        cargo test --release -q -p meshing-universe --test fof_pipeline &&
        cargo test --release -q -p postprocess --lib components:: &&
        cargo test --release -q -p postprocess --lib -- minkowski:: &&
        cargo test --release -q -p framework --lib halo_finder:: &&
        TESS_DECOMP=kd cargo test --release -q -p meshing-universe --test ghost_adaptive &&
        TESS_DECOMP=kd cargo test --release -q -p meshing-universe --test kernel_equivalence &&
        TESS_DECOMP=kd cargo test --release -q -p meshing-universe --test service_oracle &&
        TESS_DECOMP=kd cargo test --release -q -p meshing-universe --test service_property &&
        TESS_DECOMP=kd cargo test --release -q -p meshing-universe --test service_epochs &&
        TESS_DECOMP=kd cargo test --release -q -p meshing-universe --test voids_pipeline
}

stage_memory() {
    echo "==> [memory] streaming output + on-disk format + memory accounting gates"
    # (1) the streamed-vs-accumulated acceptance matrix: bit-identical
    # files at 1/2/4/8 ranks under both decomposition schemes, culled streaming, RunReport memory counters, and adaptive
    # multi-round streaming — the same round loop as `tessellate` with the
    # write sink, so blocks that become final in different rounds (the
    # default schedule) must stream to the identical file; (2) the on-disk codec fuzz: any single-byte
    # corruption or truncation of a block file is a typed error, never a
    # panic; (3) memory_budget: 8-rank, 64-block clustered streaming vs
    # accumulate A/B gating on allocator peak (<=0.8x), equal files, and the
    # light- and tight-culled bytes/particle budgets; (4) the mesh block
    # codec: a clustered multi-block mesh re-encodes to the same v2 bytes,
    # and every bit flip or truncation of a real block, and random byte
    # corruptions of four more, decode to a typed error or to a block whose
    # every index is in range, never a panic; the flat model's own unit
    # tests (views, size accounting, typed index errors) run too; (5)
    # post_memory: one Minkowski call on an 8-block mesh stays inside its
    # pinned allocator budget, and a 2-rank read holds its decoded blocks
    # plus at most one raw payload per rank.
    cargo test --release -q -p meshing-universe --test streaming_output &&
        cargo test --release -q -p diy --test blockfile_fuzz &&
        cargo test --release -q -p meshing-universe --test memory_budget &&
        cargo test --release -q -p meshing-universe --test post_memory &&
        cargo test --release -q -p meshing-universe --test block_codec &&
        cargo test --release -q -p tess --lib -- model::
}

stage_obs() {
    echo "==> [obs] telemetry and tracing neutrality, quantiles, round-trip"
    # Histogram quantile contracts (one log2 bucket of exact, for the
    # rolling window too, while it fills and after it rotates), the
    # service's live instruments and request-scoped tracing, and the
    # traced mesh bit-identical to a plain run. The
    # Prometheus exposition round-trip is a diy unit test (test stage).
    cargo test --release -q -p diy --test hist_quantiles &&
        cargo test --release -q -p meshing-universe --test service_telemetry &&
        cargo test --release -q -p meshing-universe --test trace_invariants
}

stage_benchmark() {
    echo "==> [benchmark] benchmark/run.sh --quick: builds against the library API, checks pass"
    # The repository benchmark (BENCHMARK.json) is a crate of its own that
    # the workspace build never sees. A short run of every workload fails
    # here — not in the merge pipeline — when a change breaks the API
    # surface it calls or one of its bit-identity / oracle checks.
    bash benchmark/run.sh --quick
}

stage_fmt() {
    echo "==> [fmt] cargo fmt --check"
    cargo fmt --check
}

stage_clippy() {
    echo "==> [clippy] cargo clippy -D warnings (all targets)"
    cargo clippy --workspace --all-targets -- -D warnings
}

# ---- drivers ---------------------------------------------------------------

ALL_STAGES="build test ghost kernel trace service decomp memory obs benchmark fmt clippy"
QUICK_STAGES="build test fmt clippy"

case "${1:-full}" in
full)
    for s in $ALL_STAGES; do run_stage "$s"; done
    ;;
quick)
    for s in $QUICK_STAGES; do run_stage "$s"; done
    ;;
*)
    for s in "$@"; do
        case " $ALL_STAGES " in
        *" $s "*) run_stage "$s" ;;
        *)
            echo "ci.sh: unknown stage '$s' (stages: $ALL_STAGES)" >&2
            exit 2
            ;;
        esac
    done
    ;;
esac

echo "==> CI green"
