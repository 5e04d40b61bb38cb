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

use bench_harness::{bytes_h, corpus::ClusterSpec, output_dir, run_decomp_ab, secs, Table};
use diy::comm::Runtime;
use diy::decomposition::DecompScheme;
use diy::metrics::collect_report;
use geometry::Vec3;
use hacc::SimParams;
use postprocess::VolumeFilter;
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
                let result = tessellate(world, &sim.dec, &sim.asn, &local, &tess_params);
                let bytes =
                    tess::io::write_tessellation(world, &out_path, &result.blocks).expect("write");
                (collect_report(world), bytes)
            });
            let (report, bytes) = &rows[0];
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

    // Clustered-corpus decomposition A/B: regular vs particle-balanced k-d
    // at 8 ranks on the corner-heavy halo corpus. Modeled parallel wall =
    // max-over-ranks thread-CPU per phase (the slowest rank's critical
    // path), with the cell-kernel pool pinned to 1 thread. Both schemes
    // must publish the same mesh.
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
    }
    assert!(
        arms[0].1.mesh == arms[1].1.mesh,
        "clustered mesh differs between decomposition schemes"
    );
    println!(
        "\n# Clustered-corpus decomposition A/B (modeled parallel wall: max-over-ranks thread-CPU)"
    );
    ab.print();
}
