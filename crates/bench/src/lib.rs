//! Shared machinery for the per-table/per-figure benchmark harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4). This library holds the common pieces: evolved
//! particle sets, distributed run drivers, timing reduction, and plain-text
//! table output.
//!
//! ## Timing methodology
//!
//! Ranks are threads, usually oversubscribed on far fewer cores than the
//! BG/P partitions the paper uses, so the harnesses report **per-rank
//! thread-CPU time reduced with max across ranks** (the critical path) —
//! see `diy::timing`. Shapes (scaling slopes, component breakdowns) are
//! comparable with the paper; absolute numbers are not.

pub mod corpus;

use std::collections::BTreeMap;

use diy::comm::World;
use diy::decomposition::{Assignment, Decomposition};
use geometry::Vec3;
use hacc::{SimParams, Simulation};

/// The paper's small-scale workload: `np³` particles at 1 Mpc/h spacing
/// evolved `nsteps` of 100 total; returns `(id, position)` for all
/// particles (serial convenience; deterministic).
pub fn evolved_particles(np: usize, nsteps: usize) -> Vec<(u64, Vec3)> {
    let params = SimParams::paper_like(np);
    let cosmo = hacc::Cosmology::default();
    let ic = hacc::ic::zeldovich(
        &hacc::ic::IcParams {
            np,
            box_size: params.box_size,
            seed: params.seed,
            delta_rms: params.initial_delta_rms,
            spectrum: params.spectrum,
        },
        &cosmo,
        params.a_init,
    );
    let solver = hacc::PmSolver::new(np, cosmo);
    let mut pos = ic.positions;
    let mut mom = ic.momenta;
    for k in 0..nsteps {
        solver.step(&mut pos, &mut mom, params.a_at(k), params.da_at(k));
    }
    pos.into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect()
}

/// Split a global particle list into the per-block map each rank feeds to
/// `tess::tessellate`.
pub fn partition_particles(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    asn: &Assignment,
    rank: usize,
) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
    let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
        asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
    for &(id, p) in particles {
        let gid = dec.block_of_point(p);
        if let Some(v) = local.get_mut(&gid) {
            v.push((id, p));
        }
    }
    local
}

/// Max across ranks (the critical-path reduction for thread-CPU times).
pub fn max_over_ranks(world: &mut World, v: f64) -> f64 {
    world.all_reduce(v, f64::max)
}

/// Cell fingerprint used by the bit-identity oracles: (volume bits, area
/// bits, face neighbors).
pub type CellBits = (u64, u64, Vec<u64>);

/// Flatten merged mesh blocks to a site-id → fingerprint map, asserting
/// each cell is published exactly once.
pub fn mesh_bits(blocks: &BTreeMap<u64, tess::MeshBlock>) -> BTreeMap<u64, CellBits> {
    let mut mesh = BTreeMap::new();
    for b in blocks.values() {
        for c in &b.cells {
            let bits = (
                c.volume.to_bits(),
                c.area.to_bits(),
                c.faces.iter().map(|f| f.neighbor).collect(),
            );
            assert!(
                mesh.insert(b.site_id_of(c), bits).is_none(),
                "cell duplicated"
            );
        }
    }
    mesh
}

/// One arm of the clustered-corpus decomposition A/B (see
/// [`run_decomp_ab`]).
pub struct DecompAbArm {
    pub mesh: BTreeMap<u64, CellBits>,
    pub stats: tess::TessStats,
    /// Per-phase thread-CPU seconds, max across ranks.
    pub exchange_s: f64,
    pub voronoi_s: f64,
    /// Modeled parallel wall clock: `exchange_s + voronoi_s`. Ranks are
    /// threads sharing cores, so elapsed time cannot show a balance win;
    /// the per-phase max-over-ranks thread-CPU sum — the slowest rank's
    /// critical path — is what a rank-per-core machine would see, and is
    /// what the A/B table reports.
    pub modeled_s: f64,
    /// Max/mean per-rank particle count (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl DecompAbArm {
    /// Cells per modeled-parallel-wall second — the A/B headline number.
    pub fn cells_per_sec(&self) -> f64 {
        self.stats.cells as f64 / self.modeled_s
    }
}

/// Run one decomposition arm of the clustered A/B: tessellate `particles`
/// at `nranks` ranks (one block per rank) under `scheme`, with weighted
/// block→rank assignment for the k-d scheme and the multi-round adaptive
/// ghost protocol. `reps` repeats keep the best
/// (smallest) modeled wall; the mesh and imbalance are deterministic.
/// Call under `rayon::set_max_parallelism(1)` so per-rank thread-CPU
/// attribution is exact.
pub fn run_decomp_ab(
    particles: &[(u64, Vec3)],
    side: f64,
    nranks: usize,
    scheme: diy::decomposition::DecompScheme,
    reps: usize,
) -> DecompAbArm {
    use diy::decomposition::{BalanceStats, DecompScheme};
    use diy::metrics::collect_report;
    let domain = geometry::Aabb::cube(side);
    let mut best: Option<DecompAbArm> = None;
    for _ in 0..reps.max(1) {
        let rows = diy::comm::Runtime::run(nranks, move |world| {
            let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
            let dec = scheme.build(domain, nranks, [true; 3], &positions);
            let asn = match scheme {
                DecompScheme::Regular => Assignment::new(nranks, world.nranks()),
                DecompScheme::Kd { .. } => {
                    let mut weights = vec![0u64; nranks];
                    for &p in &positions {
                        weights[dec.block_of_point(p) as usize] += 1;
                    }
                    Assignment::weighted(&weights, world.nranks())
                }
            };
            let imbalance = BalanceStats::measure(&dec, &asn, &positions).rank_imbalance();
            let local = partition_particles(particles, &dec, &asn, world.rank());
            let params = tess::TessParams {
                ghost: tess::GhostSpec::Adaptive {
                    initial_factor: 0.5,
                    max_rounds: 8,
                },
                ..tess::TessParams::default()
            };
            let r = tess::tessellate(world, &dec, &asn, &local, &params);
            let stats = tess::driver::global_stats(world, r.stats);
            let report = collect_report(world);
            assert!(report.is_conserved(), "transport conservation violated");
            (r.blocks, stats, report, imbalance)
        });
        let mut blocks = BTreeMap::new();
        let mut first = None;
        for (b, stats, report, imbalance) in rows {
            blocks.extend(b);
            if first.is_none() {
                first = Some((stats, report, imbalance));
            }
        }
        let mesh = mesh_bits(&blocks);
        let (stats, report, imbalance) = first.expect("at least one rank");
        let exchange_s = report.cpu_max(tess::driver::PHASE_GHOST_EXCHANGE);
        let voronoi_s = report.cpu_max(tess::driver::PHASE_VORONOI);
        let arm = DecompAbArm {
            mesh,
            stats,
            exchange_s,
            voronoi_s,
            modeled_s: exchange_s + voronoi_s,
            imbalance,
        };
        if best.as_ref().is_none_or(|b| arm.modeled_s < b.modeled_s) {
            best = Some(arm);
        }
    }
    best.unwrap()
}

/// Initialize and advance a distributed simulation. Its cost lands in the
/// world's metrics under the [`hacc::PHASE_SIM`] span; read it back from
/// [`diy::metrics::collect_report`].
pub fn run_sim(world: &mut World, params: SimParams, nblocks: usize, nsteps: usize) -> Simulation {
    let mut sim = Simulation::init(world, params, nblocks);
    sim.run_steps(world, nsteps);
    sim
}

/// Fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Format byte counts.
pub fn bytes_h(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Where harness binaries drop artifacts (SVGs, data files).
pub fn output_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "bench-out".to_string()),
    );
    std::fs::create_dir_all(&dir).expect("create bench output dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Aabb;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "longheader"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1].chars().filter(|&c| c == '-').count(),
            lines[1].len()
        );
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    fn partition_covers_all_particles() {
        let particles = evolved_particles(8, 2);
        assert_eq!(particles.len(), 512);
        let dec = Decomposition::regular(Aabb::cube(8.0), 8, [true; 3]);
        let asn = Assignment::new(8, 2);
        let total: usize = (0..2)
            .map(|rank| {
                partition_particles(&particles, &dec, &asn, rank)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(0.0123), "12.3ms");
        assert_eq!(secs(2.5), "2.50");
        assert_eq!(secs(150.0), "150");
        assert_eq!(bytes_h(512), "512B");
        assert_eq!(bytes_h(2048), "2.0KiB");
        assert_eq!(bytes_h(3 << 20), "3.00MiB");
    }
}
