//! trace_export — flight-recorder smoke: traced run, Chrome-trace export,
//! overhead gate.
//!
//! Runs the small Table II workload (np16 evolved particles, 8 blocks on 4
//! ranks, multi-round adaptive ghost) once untraced and once under
//! `TESS_TRACE=full`, best-of-3 wall each, then asserts:
//!
//! 1. **Overhead** — the traced wall time stays within 10% (+0.1 s noise
//!    floor) of the untraced wall time.
//! 2. **Non-interference** — both runs produce a bit-identical merged mesh.
//! 3. **Export** — the merged per-rank traces render to Chrome-trace JSON
//!    that validates (parses, balanced B/E pairs per track, monotonic
//!    timestamps), with one pid per rank, ghost-round markers, and pool
//!    worker tasks on their own tids.
//! 4. **Codec** — `Vec<RankTrace>` round-trips bit-exactly through the
//!    binary codec.
//!
//! Artifact: `bench-out/trace_np16_r4.trace.json` — open it at
//! ui.perfetto.dev ("Open trace file") or chrome://tracing.

use std::collections::BTreeMap;
use std::time::Instant;

use bench_harness::{evolved_particles, output_dir, partition_particles};
use diy::codec::{Decode, Encode};
use diy::comm::Runtime;
use diy::trace::{
    chrome_trace_json, collect_traces, set_trace_mode, validate_chrome_trace, EventKind, RankTrace,
    TraceMode,
};
use geometry::Aabb;
use rayon::set_max_parallelism;
use tess::{tessellate, GhostSpec, TessParams};

const NP: usize = 16;
const NSTEPS: usize = 100;
const NBLOCKS: usize = 8;
const NRANKS: usize = 4;
const GHOST: GhostSpec = GhostSpec::Adaptive {
    initial_factor: 0.5,
    max_rounds: 8,
};
/// Best-of-N wall-clock to damp scheduler noise on a busy CI box.
const REPS: usize = 3;

type CellBits = (u64, u64, Vec<u64>);
type Decomp = diy::decomposition::Decomposition;

struct ModeRun {
    wall_s: f64,
    mesh: BTreeMap<u64, CellBits>,
    traces: Vec<RankTrace>,
}

fn run_mode(particles: &[(u64, geometry::Vec3)], dec: &Decomp, mode: TraceMode) -> ModeRun {
    set_trace_mode(mode);
    let mut best: Option<ModeRun> = None;
    for _ in 0..REPS {
        let rows = Runtime::run(NRANKS, move |world| {
            let asn = diy::decomposition::Assignment::new(NBLOCKS, world.nranks());
            let local = partition_particles(particles, dec, &asn, world.rank());
            let params = TessParams {
                ghost: GHOST,
                ..TessParams::default()
            };
            let t0 = Instant::now();
            let r = tessellate(world, dec, &asn, &local, &params);
            let wall = world.all_reduce(t0.elapsed().as_secs_f64(), f64::max);
            // Collective: every rank participates, root gets the merge.
            let traces = collect_traces(world);
            let mesh: Vec<(u64, CellBits)> = r
                .blocks
                .values()
                .flat_map(|b| {
                    b.cells
                        .iter()
                        .map(|c| {
                            (
                                b.site_id_of(c),
                                (
                                    c.volume.to_bits(),
                                    c.area.to_bits(),
                                    c.faces.iter().map(|f| f.neighbor).collect(),
                                ),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            (wall, mesh, traces)
        });
        let mut mesh = BTreeMap::new();
        for (id, bits) in rows.iter().flat_map(|(_, m, _)| m.iter().cloned()) {
            assert!(mesh.insert(id, bits).is_none(), "cell {id} duplicated");
        }
        let wall = rows[0].0;
        let traces = rows
            .into_iter()
            .find_map(|(_, _, t)| t)
            .expect("root rank returns the merged trace");
        if best.as_ref().is_none_or(|b| wall < b.wall_s) {
            best = Some(ModeRun {
                wall_s: wall,
                mesh,
                traces,
            });
        }
    }
    best.unwrap()
}

fn main() {
    let particles = evolved_particles(NP, NSTEPS);
    let dec = Decomp::regular(Aabb::cube(NP as f64), NBLOCKS, [true; 3]);
    let threads = std::env::var("TESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    set_max_parallelism(threads.max(2));

    let off = run_mode(&particles, &dec, TraceMode::Off);
    let full = run_mode(&particles, &dec, TraceMode::Full);
    set_trace_mode(TraceMode::Off);

    // Gate 2: tracing must not perturb the mesh.
    assert_eq!(
        full.mesh, off.mesh,
        "traced run produced a different mesh than the untraced run"
    );

    // Gate 1: < 10% overhead, with a small absolute floor for timer noise
    // on a workload this short.
    let overhead = full.wall_s / off.wall_s - 1.0;
    println!(
        "trace_export: untraced {:.3}s, traced {:.3}s ({:+.1}% overhead)",
        off.wall_s,
        full.wall_s,
        overhead * 100.0
    );
    assert!(
        full.wall_s <= off.wall_s * 1.10 + 0.1,
        "tracing overhead too high: {:.3}s traced vs {:.3}s untraced",
        full.wall_s,
        off.wall_s
    );

    // The untraced trace must be empty; the traced one must cover every
    // rank and contain the landmarks the exporter promises.
    assert_eq!(off.traces.len(), NRANKS);
    assert!(off.traces.iter().all(|t| t.events.is_empty()));
    let traces = &full.traces;
    assert_eq!(traces.len(), NRANKS, "one trace per rank");
    let total: usize = traces.iter().map(|t| t.events.len()).sum();
    assert!(total > 0, "traced run recorded no events");
    let has_ghost_round_mark = traces.iter().any(|t| {
        t.events
            .iter()
            .any(|e| e.kind == EventKind::Mark && t.name(e.name) == "ghost_round")
    });
    assert!(has_ghost_round_mark, "no ghost-round markers in the trace");
    let pool_tasks: usize = traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::PoolTask)
        .count();
    assert!(pool_tasks > 0, "no pool task events in the trace");
    for t in traces {
        assert_eq!(
            t.emitted,
            t.events.len() as u64 + t.dropped,
            "rank {}: emitted != recorded + dropped",
            t.rank
        );
    }

    // Gate 4: binary codec round-trip.
    let bytes = traces.to_bytes();
    let back = Vec::<RankTrace>::from_bytes(&bytes).expect("trace codec decode");
    assert_eq!(&back, traces, "trace codec round-trip mismatch");

    // Gate 3: Chrome-trace export validates and lands on disk.
    let json = chrome_trace_json(traces);
    let n_events = validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("exported Chrome trace invalid: {e}"));
    let path = output_dir().join(format!("trace_np{NP}_r{NRANKS}.trace.json"));
    std::fs::write(&path, &json).expect("write trace json");
    println!(
        "trace_export: {} events ({} pool tasks) -> {} ({} bytes, {n_events} trace records) — OK",
        total,
        pool_tasks,
        path.display(),
        json.len()
    );
}
