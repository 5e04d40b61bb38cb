//! Ablation: ghost-zone size vs. exchange cost vs. accuracy (§IV-A).
//!
//! "We are investigating the tradeoff between ghost zone size,
//! neighborhood exchange time, and accuracy. For example, it may be
//! desirable to exchange fewer particles with a smaller ghost zone if the
//! reduction in accuracy is insignificant." — this harness quantifies that
//! tradeoff: per ghost size, the number of ghost particles exchanged, the
//! ghost traffic in bytes (from the per-tag transport counters), the
//! exchange and compute times, and the fraction of cells certified
//! complete. The final rows compare the fixed auto-heuristic radius
//! against `GhostSpec::Adaptive` starting at half that radius: same mesh
//! out, fewer ghost bytes on the wire.

use bench_harness::{bytes_h, evolved_particles, partition_particles, secs, Table};
use diy::comm::Runtime;
use diy::decomposition::{Assignment, Decomposition};
use diy::metrics::collect_report;
use geometry::Aabb;
use tess::ghost::is_ghost_tag;
use tess::{tessellate, GhostSpec, TessParams, PHASE_GHOST_EXCHANGE, PHASE_VORONOI};

struct ModeResult {
    stats: tess::TessStats,
    exchange_s: f64,
    voronoi_s: f64,
    ghost_bytes: u64,
    total_volume: f64,
}

fn run_mode(
    particles: &[(u64, geometry::Vec3)],
    dec: &Decomposition,
    ghost: GhostSpec,
) -> ModeResult {
    let rows = Runtime::run(4, move |world| {
        let asn = Assignment::new(8, world.nranks());
        let local = partition_particles(particles, dec, &asn, world.rank());
        let params = TessParams {
            ghost,
            ..TessParams::default()
        };
        let r = tessellate(world, dec, &asn, &local, &params);
        let volume: f64 = r
            .blocks
            .values()
            .flat_map(|b| b.cells.iter().map(|c| c.volume))
            .sum();
        let stats = tess::driver::global_stats(world, r.stats);
        let total_volume = world.all_reduce(volume, |a, b| a + b);
        let report = collect_report(world);
        let (_, ghost_bytes) = report.tag_traffic_where(is_ghost_tag);
        (
            stats,
            report.cpu_max(PHASE_GHOST_EXCHANGE),
            report.cpu_max(PHASE_VORONOI),
            ghost_bytes,
            total_volume,
        )
    });
    let (stats, exchange_s, voronoi_s, ghost_bytes, total_volume) = rows[0];
    ModeResult {
        stats,
        exchange_s,
        voronoi_s,
        ghost_bytes,
        total_volume,
    }
}

fn main() {
    let np = std::env::var("BENCH_NP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32usize);
    let nsteps = 100;
    println!(
        "# Ablation: ghost size vs exchange volume vs certified cells ({np}^3, 8 blocks, 4 ranks)"
    );
    let particles = evolved_particles(np, nsteps);
    let domain = Aabb::cube(np as f64);
    let dec = Decomposition::regular(domain, 8, [true; 3]);

    let mut table = Table::new(&[
        "Ghost",
        "Rounds",
        "GhostParticles",
        "GhostBytes",
        "Exchange(s)",
        "Voronoi(s)",
        "Complete%",
        "GhostsPerOwn%",
        "CandPerCell",
        "CellsReused",
    ]);
    let mut push_row = |label: String, r: &ModeResult| {
        let total = r.stats.cells + r.stats.incomplete;
        table.row(&[
            label,
            r.stats.ghost_rounds.to_string(),
            r.stats.ghosts_received.to_string(),
            bytes_h(r.ghost_bytes),
            secs(r.exchange_s),
            secs(r.voronoi_s),
            format!("{:.2}", 100.0 * r.stats.cells as f64 / total as f64),
            format!(
                "{:.0}",
                100.0 * r.stats.ghosts_received as f64 / r.stats.sites as f64
            ),
            format!(
                "{:.1}",
                r.stats.candidates_tested as f64 / r.stats.cells_computed.max(1) as f64
            ),
            r.stats.cells_reused.to_string(),
        ]);
    };

    for ghost in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
        let r = run_mode(&particles, &dec, GhostSpec::Explicit(ghost));
        push_row(format!("{ghost:.1}"), &r);
    }

    // Head-to-head: the fixed auto heuristic vs adaptive from half that
    // radius (the acceptance comparison — same mesh, fewer bytes).
    let auto = run_mode(&particles, &dec, GhostSpec::default());
    push_row("auto".into(), &auto);
    let adaptive = run_mode(&particles, &dec, GhostSpec::adaptive());
    push_row("adapt".into(), &adaptive);
    table.print();

    assert_eq!(
        adaptive.stats.incomplete, 0,
        "adaptive must certify every cell"
    );
    assert_eq!(
        adaptive.stats.cells, auto.stats.cells,
        "adaptive must keep the same cells as the auto radius"
    );
    let vol_err = (adaptive.total_volume - auto.total_volume).abs() / auto.total_volume;
    assert!(vol_err < 1e-9, "mesh volume differs: rel err {vol_err:e}");
    assert!(
        adaptive.ghost_bytes < auto.ghost_bytes,
        "adaptive ({}) must ship fewer ghost bytes than auto ({})",
        adaptive.ghost_bytes,
        auto.ghost_bytes
    );
    // Incremental re-tessellation: rounds after the first only recompute
    // the cells the previous round could not certify, so total kernel
    // invocations stay strictly below a full recompute per round.
    if adaptive.stats.ghost_rounds >= 2 {
        assert!(
            adaptive.stats.cells_reused > 0,
            "multi-round adaptive run reused no certified cells"
        );
        assert!(
            adaptive.stats.cells_computed < adaptive.stats.sites * adaptive.stats.ghost_rounds,
            "adaptive computed {} cells over {} rounds of {} sites — not incremental",
            adaptive.stats.cells_computed,
            adaptive.stats.ghost_rounds,
            adaptive.stats.sites
        );
    }
    println!(
        "# adaptive vs auto: identical mesh ({} cells, rel vol err {:.1e}), ghost bytes {} vs {} ({:.0}% saved) in {} rounds",
        adaptive.stats.cells,
        vol_err,
        bytes_h(adaptive.ghost_bytes),
        bytes_h(auto.ghost_bytes),
        100.0 * (1.0 - adaptive.ghost_bytes as f64 / auto.ghost_bytes as f64),
        adaptive.stats.ghost_rounds,
    );
    println!("# expectation: exchange volume grows ~linearly in ghost thickness;");
    println!("# certified-cell fraction saturates — past that point extra ghost is wasted");
}
