//! CI perf smoke: the small Table II workload in two configurations —
//!
//!   A. sequential (1-wide pool), full per-round recompute (seed-equivalent)
//!   B. threaded + incremental (the default production path)
//!
//! Gates, any failure exits non-zero:
//!
//! 1. **Correctness** — both configurations produce a bit-identical merged
//!    mesh and the transport conservation invariant holds.
//! 2. **Kernel work** — B clips at most [`CANDIDATES_PER_CELL_BUDGET`]
//!    bisectors per computed cell, and the support-function / `f32`
//!    rejects actually fire. Candidate counts are deterministic, so this
//!    gate is noise-free.
//! 3. **Relative throughput** — B must clear 2× the sequential baseline's
//!    cells/sec (same process, same run).
//!
//! Both measurements land in `BENCH_TESS.json` under the bench output dir
//! and the repo root.

use std::collections::BTreeMap;
use std::time::Instant;

use bench_harness::{
    corpus::ClusterSpec, evolved_particles_cached, partition_particles, print_report_hists,
    run_decomp_ab, write_bench_tess_json, DecompAbArm, TessBenchEntry,
};
use diy::comm::Runtime;
use diy::decomposition::{Assignment, BalanceStats, DecompScheme};
use diy::metrics::collect_report;
use geometry::Aabb;
use rayon::set_max_parallelism;
use tess::ghost::is_ghost_tag;
use tess::{tessellate, GhostSpec, TessParams};

const NP: usize = 16;
const NSTEPS: usize = 100;
const NBLOCKS: usize = 8;
const NRANKS: usize = 4;
/// Small initial radius so the adaptive loop needs several growth rounds —
/// the regime the incremental path optimizes.
const GHOST: GhostSpec = GhostSpec::Adaptive {
    initial_factor: 0.5,
    max_rounds: 8,
};
/// Best-of-N wall-clock to damp scheduler noise on a busy CI box.
const REPS: usize = 3;
/// Gate 2: bisector clips per computed cell on this workload, ~5 % above
/// the measured 119.7. The small initial radius means most computations
/// are of cells that cannot certify yet, so the count sits well above a
/// single-round run's.
const CANDIDATES_PER_CELL_BUDGET: f64 = 126.0;

/// Cell fingerprint: (volume bits, area bits, face neighbors).
type CellBits = (u64, u64, Vec<u64>);

struct ModeRun {
    mesh: BTreeMap<u64, CellBits>,
    stats: tess::TessStats,
    ghost_bytes: u64,
    wall_s: f64,
    report: diy::metrics::RunReport,
}

fn run_mode(particles: &[(u64, geometry::Vec3)], dec: &Decomp, incremental: bool) -> ModeRun {
    let mut best: Option<ModeRun> = None;
    for _ in 0..REPS {
        let rows = Runtime::run(NRANKS, move |world| {
            let asn = diy::decomposition::Assignment::new(NBLOCKS, world.nranks());
            let local = partition_particles(particles, dec, &asn, world.rank());
            let params = TessParams {
                ghost: GHOST,
                incremental_retess: incremental,
                ..TessParams::default()
            };
            let t0 = Instant::now();
            let r = tessellate(world, dec, &asn, &local, &params);
            let wall = world.all_reduce(t0.elapsed().as_secs_f64(), f64::max);
            // Exercise the output phase (outside the timed window) so the
            // per-phase breakdown in BENCH_TESS.json has a real output_s.
            let out_path = bench_harness::output_dir().join("perf_smoke_mesh.bin");
            tess::io::write_tessellation(world, &out_path, &r.blocks).expect("write mesh");
            let stats = tess::driver::global_stats(world, r.stats);
            let report = collect_report(world);
            assert!(report.is_conserved(), "transport conservation violated");
            let (_, ghost_bytes) = report.tag_traffic_where(is_ghost_tag);
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
            (mesh, stats, ghost_bytes, wall, report)
        });
        let mut mesh = BTreeMap::new();
        for (id, bits) in rows.iter().flat_map(|(m, ..)| m.iter().cloned()) {
            assert!(mesh.insert(id, bits).is_none(), "cell {id} duplicated");
        }
        let (_, stats, ghost_bytes, wall, report) = rows.into_iter().next().unwrap();
        if best.as_ref().is_none_or(|b| wall < b.wall_s) {
            best = Some(ModeRun {
                mesh,
                stats,
                ghost_bytes,
                wall_s: wall,
                report,
            });
        }
    }
    best.unwrap()
}

type Decomp = diy::decomposition::Decomposition;

const AB_RANKS: usize = 8;

fn cand_per_cell(r: &ModeRun) -> f64 {
    r.stats.candidates_tested as f64 / r.stats.cells_computed.max(1) as f64
}

fn main() {
    let particles = evolved_particles_cached(NP, NSTEPS);
    let dec = Decomp::regular(Aabb::cube(NP as f64), NBLOCKS, [true; 3]);
    let main_imb = {
        let positions: Vec<geometry::Vec3> = particles.iter().map(|&(_, p)| p).collect();
        BalanceStats::measure(&dec, &Assignment::new(NBLOCKS, NRANKS), &positions).rank_imbalance()
    };

    // A: seed-equivalent baseline — 1-wide pool, full recompute.
    let prev = set_max_parallelism(1);
    let baseline = run_mode(&particles, &dec, false);
    // B: the production path at the CI thread count (TESS_THREADS,
    // default 4) on the identical workload.
    let threads = std::env::var("TESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    set_max_parallelism(threads.max(2));
    let threaded = run_mode(&particles, &dec, true);
    set_max_parallelism(prev);

    // Gate 1: bit-identical meshes across pool width and incremental reuse.
    assert_eq!(
        threaded.mesh, baseline.mesh,
        "threaded incremental mesh differs from the sequential full-recompute baseline"
    );
    assert_eq!(threaded.stats.cells, baseline.stats.cells);
    assert!(
        threaded.stats.cells_reused > 0,
        "incremental mode reused nothing — not exercising the resume path"
    );

    // Gate 2: kernel work. Deterministic counters, no timing noise.
    let cand = cand_per_cell(&threaded);
    assert!(
        cand <= CANDIDATES_PER_CELL_BUDGET,
        "kernel clipped {cand:.1} candidates/cell — budget {CANDIDATES_PER_CELL_BUDGET}"
    );
    assert!(
        threaded.stats.prefilter_skipped > 0,
        "candidate rejects never fired"
    );

    let cps = |r: &ModeRun| r.stats.cells as f64 / r.wall_s;
    let (base_cps, threaded_cps) = (cps(&baseline), cps(&threaded));
    let speedup = threaded_cps / base_cps;
    println!(
        "perf_smoke: baseline {base_cps:.0} cells/s ({} computed), threaded {threaded_cps:.0} cells/s ({} computed, {} reused), speedup {speedup:.2}x over {} rounds",
        baseline.stats.cells_computed,
        threaded.stats.cells_computed,
        threaded.stats.cells_reused,
        threaded.stats.ghost_rounds,
    );
    println!(
        "perf_smoke: candidates/cell {cand:.1} (budget {CANDIDATES_PER_CELL_BUDGET}), {} rejected unclipped",
        threaded.stats.prefilter_skipped,
    );

    // Per-phase thread-CPU seconds (max across ranks) from the RunReport
    // spans; the gate below keeps them from silently regressing to 0.0.
    let entry = |label: &str, r: &ModeRun| {
        let e = TessBenchEntry {
            label: label.into(),
            stats: r.stats,
            wall_s: r.wall_s,
            ghost_bytes: r.ghost_bytes,
            exchange_s: r.report.cpu_max(tess::driver::PHASE_GHOST_EXCHANGE),
            voronoi_s: r.report.cpu_max(tess::driver::PHASE_VORONOI),
            output_s: r.report.cpu_max(tess::driver::PHASE_OUTPUT),
            decomp: "regular".into(),
            imbalance: main_imb,
        };
        assert!(
            e.exchange_s > 0.0 && e.voronoi_s > 0.0 && e.output_s > 0.0,
            "{label}: per-phase seconds must be non-zero (exchange {:.6}, voronoi {:.6}, output {:.6})",
            e.exchange_s,
            e.voronoi_s,
            e.output_s
        );
        e
    };
    let mut entries = vec![
        entry("perf_smoke_baseline_seq_full", &baseline),
        entry(
            &format!("perf_smoke_threads{threads}_incremental"),
            &threaded,
        ),
    ];

    // ---- Clustered-corpus decomposition A/B: the headline k-d gate ----
    // A corner-heavy halo corpus makes the regular grid pathological (one
    // octant owns most of the mass, so the slowest rank sets the wall
    // clock) while the particle-balanced k-d scheme spreads the same work
    // evenly. Ranks are threads sharing cores here, so the A/B gates on
    // the modeled parallel wall clock (see AbRun::modeled_s) with the
    // cell-kernel pool pinned to one thread so per-rank thread-CPU
    // attribution is exact. Both schemes must publish the bit-identical
    // merged mesh — decomposition is a perf axis AND a correctness oracle.
    let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 42);
    let corpus = spec.generate();
    let prev = set_max_parallelism(1);
    let reg = run_decomp_ab(&corpus, spec.side, AB_RANKS, DecompScheme::Regular, REPS);
    let kd = run_decomp_ab(
        &corpus,
        spec.side,
        AB_RANKS,
        DecompScheme::Kd {
            sample: DecompScheme::DEFAULT_KD_SAMPLE,
        },
        REPS,
    );
    set_max_parallelism(prev);
    println!(
        "perf_smoke: clustered A/B cells regular {} (incomplete {}, rounds {}, imbalance {:.2}), kd {} (incomplete {}, rounds {}, imbalance {:.2})",
        reg.stats.cells,
        reg.stats.incomplete,
        reg.stats.ghost_rounds,
        reg.imbalance,
        kd.stats.cells,
        kd.stats.incomplete,
        kd.stats.ghost_rounds,
        kd.imbalance,
    );
    assert_eq!(reg.stats.incomplete, 0, "regular arm dropped cells");
    assert_eq!(kd.stats.incomplete, 0, "kd arm dropped cells");
    assert_eq!(
        kd.mesh, reg.mesh,
        "clustered mesh differs between decomposition schemes"
    );
    let (reg_cps, kd_cps) = (reg.cells_per_sec(), kd.cells_per_sec());
    let kd_speedup = kd_cps / reg_cps;
    println!(
        "perf_smoke: clustered A/B at {AB_RANKS} ranks ({} particles): regular {:.0} cells/s (imbalance {:.2}), kd {:.0} cells/s (imbalance {:.2}), kd speedup {kd_speedup:.2}x (modeled parallel wall)",
        corpus.len(),
        reg_cps,
        reg.imbalance,
        kd_cps,
        kd.imbalance,
    );
    assert!(
        reg.imbalance >= 3.0,
        "clustered corpus is not adversarial enough: regular imbalance {:.2} (need >=3x)",
        reg.imbalance
    );
    assert!(
        kd.imbalance <= 1.25,
        "kd decomposition left imbalance {:.2} (need <=1.25x)",
        kd.imbalance
    );
    assert!(
        kd_speedup >= 1.4,
        "kd is only {kd_speedup:.2}x regular on the clustered corpus (need 1.4x)"
    );
    let ab_entry = |label: &str, r: &DecompAbArm, decomp: &str| TessBenchEntry {
        label: label.into(),
        stats: r.stats,
        wall_s: r.modeled_s,
        ghost_bytes: r.ghost_bytes,
        exchange_s: r.exchange_s,
        voronoi_s: r.voronoi_s,
        output_s: 0.0,
        decomp: decomp.into(),
        imbalance: r.imbalance,
    };
    entries.push(ab_entry(
        &format!("perf_smoke_clustered_r{AB_RANKS}_regular"),
        &reg,
        "regular",
    ));
    entries.push(ab_entry(
        &format!("perf_smoke_clustered_r{AB_RANKS}_kd"),
        &kd,
        "kd",
    ));

    for path in write_bench_tess_json(&entries) {
        println!("perf_smoke: wrote {}", path.display());
    }

    // Distribution sparklines from the threaded run's merged report.
    println!("perf_smoke: distributions (threaded run):");
    print_report_hists(&threaded.report);

    // Gate 3: relative throughput.
    assert!(
        speedup >= 2.0,
        "threaded path is only {speedup:.2}x the sequential full-recompute baseline (need 2x)"
    );

    // Ledger row for bench_trend's cross-run regression gate.
    let row = bench_harness::history::HistoryRow::now(
        "perf_smoke",
        &format!("np{NP}_steps{NSTEPS}_r{NRANKS}_stream"),
        vec![
            ("stream_cells_per_sec".into(), threaded_cps),
            ("candidates_per_cell".into(), cand),
            ("speedup_vs_seq_full".into(), speedup),
        ],
    );
    let ledger = bench_harness::history::history_path();
    bench_harness::history::append_history_row(&ledger, &row)
        .unwrap_or_else(|e| panic!("perf_smoke: {e}"));
    println!("perf_smoke: history row appended to {}", ledger.display());
}
