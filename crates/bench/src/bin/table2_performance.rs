//! Table II — in-situ performance data.
//!
//! Paper setup: 128³–1024³ particles on 128–16384 BG/P nodes; columns are
//! total / simulation / tessellation times, the tessellation broken into
//! particle exchange, Voronoi computation, and output, plus output size,
//! with the smallest 10% of the volume range culled.
//!
//! Scaled default here: 16³ and 32³ (64³ with BENCH_FULL=1) over 1–8
//! ranks, one block per rank (the paper's configuration). Every breakdown
//! column is derived from the merged [`diy::metrics::RunReport`]: per-phase
//! thread-CPU seconds reduced with max across ranks (critical path) — see
//! `bench_harness` docs. Each configuration's full report is also written
//! as machine-readable JSON next to the tessellation file.
//!
//! Expected shape (paper): tessellation is 1–10% of total time; exchange
//! time negligible; the serial Voronoi computation dominates tessellation
//! and scales well with rank count; output time grows with problem size.

use std::collections::BTreeMap;
use std::time::Instant;

use bench_harness::{
    bytes_h, corpus::ClusterSpec, output_dir, run_decomp_ab, secs, write_bench_tess_json, Table,
    TessBenchEntry,
};
use diy::comm::{Runtime, World};
use diy::decomposition::DecompScheme;
use diy::metrics::collect_report;
use geometry::Vec3;
use hacc::SimParams;
use postprocess::VolumeFilter;
use tess::ghost::is_ghost_tag;
use tess::{tessellate, GhostSpec, TessParams, PHASE_GHOST_EXCHANGE, PHASE_OUTPUT, PHASE_VORONOI};

/// Ghost mode from `BENCH_GHOST`: `adaptive`, `auto`, or an explicit
/// radius (default: the fixed radius 4.0 the paper-like setup uses).
fn ghost_from_env() -> GhostSpec {
    match std::env::var("BENCH_GHOST").ok().as_deref() {
        Some("adaptive") => GhostSpec::adaptive(),
        Some("auto") => GhostSpec::default(),
        Some(v) => GhostSpec::Explicit(v.parse().expect("BENCH_GHOST: adaptive|auto|<radius>")),
        None => GhostSpec::Explicit(4.0),
    }
}

/// Max/mean per-rank particle count (1.0 = perfectly balanced).
fn rank_imbalance(world: &mut World, local: &BTreeMap<u64, Vec<(u64, Vec3)>>) -> f64 {
    let mine: f64 = local.values().map(|v| v.len() as f64).sum();
    let max = world.all_reduce(mine, f64::max);
    let total = world.all_reduce(mine, |a, b| a + b);
    if total > 0.0 {
        max * world.nranks() as f64 / total
    } else {
        1.0
    }
}

fn main() {
    let full = std::env::var("BENCH_FULL").is_ok();
    let ghost = ghost_from_env();
    let mut configs: Vec<(usize, usize, Vec<usize>)> =
        vec![(16, 100, vec![1, 2, 4, 8]), (32, 50, vec![1, 2, 4, 8])];
    if full {
        configs.push((64, 10, vec![2, 4, 8, 16]));
    }

    println!("# Table II: in-situ performance (thread-CPU critical path; see DESIGN.md)");
    println!("# ghost mode: {ghost:?} (override with BENCH_GHOST=adaptive|auto|<radius>)");
    let mut bench_entries: Vec<TessBenchEntry> = Vec::new();
    let mut table = Table::new(&[
        "Particles",
        "Steps",
        "Processes",
        "Total(s)",
        "Sim(s)",
        "TessTotal(s)",
        "Exchange(s)",
        "Voronoi(s)",
        "Output(s)",
        "OutputSize",
    ]);

    for (np, nsteps, rank_list) in configs {
        for nranks in rank_list {
            let out_path = output_dir().join(format!("table2_np{np}_r{nranks}.tess"));
            let params = SimParams::paper_like(np);
            let rows = Runtime::run(nranks, |world| {
                // simulation phase (recorded under the "sim" span)
                let sim = bench_harness::run_sim(world, params, nranks, nsteps);

                // tessellation phase with the paper's 10%-of-range cull:
                // the paper uses a fixed threshold; we use 10% of the
                // small-scale characteristic range [0, 2] (Mpc/h)³ → 0.2.
                let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
                    .blocks
                    .iter()
                    .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
                    .collect();
                let tess_params = TessParams {
                    ghost,
                    ..TessParams::default().with_min_volume(0.2)
                };
                let t0 = Instant::now();
                let result = tessellate(world, &sim.dec, &sim.asn, &local, &tess_params);
                let wall = world.all_reduce(t0.elapsed().as_secs_f64(), f64::max);
                let stats = tess::driver::global_stats(world, result.stats);
                let imbalance = rank_imbalance(world, &local);

                let bytes =
                    tess::io::write_tessellation(world, &out_path, &result.blocks).expect("write");
                (collect_report(world), bytes, stats, wall, imbalance)
            });
            let (report, bytes, stats, tess_wall, imbalance) = &rows[0];
            let sim_s = report.cpu_max(hacc::PHASE_SIM);
            let exch = report.cpu_max(PHASE_GHOST_EXCHANGE);
            let comp = report.cpu_max(PHASE_VORONOI);
            let outp = report.cpu_max(PHASE_OUTPUT);
            let tess_total = exch + comp + outp;
            assert!(report.is_conserved(), "transport conservation violated");
            table.row(&[
                format!("{np}^3"),
                nsteps.to_string(),
                nranks.to_string(),
                secs(sim_s + tess_total),
                secs(sim_s),
                secs(tess_total),
                secs(exch),
                secs(comp),
                secs(outp),
                bytes_h(*bytes),
            ]);
            let json_path = output_dir().join(format!("table2_np{np}_r{nranks}.report.json"));
            std::fs::write(&json_path, report.to_json()).expect("write report json");
            let (_, ghost_bytes) = report.tag_traffic_where(is_ghost_tag);
            bench_entries.push(TessBenchEntry {
                label: format!("table2_np{np}_r{nranks}"),
                stats: *stats,
                wall_s: *tess_wall,
                ghost_bytes,
                exchange_s: exch,
                voronoi_s: comp,
                output_s: outp,
                decomp: "regular".into(),
                imbalance: *imbalance,
            });
            // sanity echo of what survived the cull
            let blocks = tess::io::read_tessellation(&out_path).expect("read back");
            let kept: usize = blocks.iter().map(|b| b.cells.len()).sum();
            let filter = VolumeFilter::at_least(0.2);
            let all_pass = blocks
                .iter()
                .all(|b| b.cells.iter().all(|c| filter.keeps(c.volume)));
            assert!(all_pass, "culled file must only hold cells above threshold");
            eprintln!(
                "  np={np} ranks={nranks}: {kept} cells kept above 0.2 (Mpc/h)^3; report: {}",
                json_path.display()
            );
        }
    }
    table.print();

    // One configuration through the adaptive multi-round incremental path,
    // so the ghost_rounds / reuse counters are live in the committed
    // BENCH_TESS.json — the fixed-radius entries above are single-round by
    // construction, leaving those columns dead.
    {
        let (np, nsteps, nranks) = (16usize, 100usize, 4usize);
        let params = SimParams::paper_like(np);
        let rows = Runtime::run(nranks, move |world| {
            let sim = bench_harness::run_sim(world, params, nranks, nsteps);
            let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
                .blocks
                .iter()
                .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
                .collect();
            let tess_params = TessParams {
                ghost: GhostSpec::Adaptive {
                    initial_factor: 0.5,
                    max_rounds: 8,
                },
                incremental_retess: true,
                ..TessParams::default().with_min_volume(0.2)
            };
            let t0 = Instant::now();
            let result = tessellate(world, &sim.dec, &sim.asn, &local, &tess_params);
            let wall = world.all_reduce(t0.elapsed().as_secs_f64(), f64::max);
            let stats = tess::driver::global_stats(world, result.stats);
            let imbalance = rank_imbalance(world, &local);
            (collect_report(world), stats, wall, imbalance)
        });
        let (report, stats, wall, imbalance) = &rows[0];
        assert!(
            stats.ghost_rounds > 1,
            "adaptive entry ran only one ghost round"
        );
        assert!(
            stats.cells_reused > 0,
            "adaptive entry reused no cells — the incremental path is dead"
        );
        let (_, ghost_bytes) = report.tag_traffic_where(is_ghost_tag);
        eprintln!(
            "  adaptive incremental np{np} r{nranks}: {} ghost rounds, {} reused / {} computed",
            stats.ghost_rounds, stats.cells_reused, stats.cells_computed
        );
        bench_entries.push(TessBenchEntry {
            label: format!("table2_np{np}_r{nranks}_adaptive_incr"),
            stats: *stats,
            wall_s: *wall,
            ghost_bytes,
            exchange_s: report.cpu_max(PHASE_GHOST_EXCHANGE),
            voronoi_s: report.cpu_max(PHASE_VORONOI),
            output_s: report.cpu_max(PHASE_OUTPUT),
            decomp: "regular".into(),
            imbalance: *imbalance,
        });
    }

    // Clustered-corpus decomposition A/B: regular vs particle-balanced k-d
    // at 8 ranks on the corner-heavy halo corpus. perf_smoke gates these
    // numbers in CI; here they land in the table and the JSON. Modeled
    // parallel wall = max-over-ranks thread-CPU per phase (the slowest
    // rank's critical path), with the cell-kernel pool pinned to 1 thread.
    let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 42);
    let corpus = spec.generate();
    let prev = rayon::set_max_parallelism(1);
    let arms = [
        ("regular", DecompScheme::Regular),
        (
            "kd",
            DecompScheme::Kd {
                sample: DecompScheme::DEFAULT_KD_SAMPLE,
            },
        ),
    ]
    .map(|(label, scheme)| (label, run_decomp_ab(&corpus, spec.side, 8, scheme, 2)));
    rayon::set_max_parallelism(prev);
    let mut ab = Table::new(&[
        "Decomp",
        "Ranks",
        "Imbalance",
        "Exchange(s)",
        "Voronoi(s)",
        "Modeled(s)",
        "Cells/s",
    ]);
    for (label, arm) in &arms {
        ab.row(&[
            (*label).to_string(),
            "8".to_string(),
            format!("{:.2}", arm.imbalance),
            secs(arm.exchange_s),
            secs(arm.voronoi_s),
            secs(arm.modeled_s),
            format!("{:.0}", arm.cells_per_sec()),
        ]);
        bench_entries.push(TessBenchEntry {
            label: format!("table2_clustered_r8_{label}"),
            stats: arm.stats,
            wall_s: arm.modeled_s,
            ghost_bytes: arm.ghost_bytes,
            exchange_s: arm.exchange_s,
            voronoi_s: arm.voronoi_s,
            output_s: 0.0,
            decomp: (*label).into(),
            imbalance: arm.imbalance,
        });
    }
    println!(
        "\n# Clustered-corpus decomposition A/B (modeled parallel wall: max-over-ranks thread-CPU)"
    );
    ab.print();

    for path in write_bench_tess_json(&bench_entries) {
        eprintln!("# machine-readable results: {}", path.display());
    }
}
