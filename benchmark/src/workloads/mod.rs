//! The five workloads, and the pieces more than one of them uses.

pub mod clustered;
pub mod insitu;
pub mod post_voids;
pub mod service;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use diy::comm::{Runtime, World};
use diy::decomposition::{Assignment, BalanceStats, DecompScheme, Decomposition};
use geometry::{Aabb, Vec3};
use hacc::{SimParams, Simulation};
use tess::{MeshBlock, TessParams, TessStats};

use crate::corpus::Rng;
use crate::report::Outcome;
use crate::span::{self, Recorder, Span, Totals};
use crate::{Config, NBLOCKS, NRANKS};

/// Per-block particle lists of one rank: what the tessellation drivers take.
pub type Local = BTreeMap<u64, Vec<(u64, Vec3)>>;

/// Relative tolerance of every volume and area comparison.
pub const REL_TOL: f64 = 1e-9;

/// Wall seconds of `f`, bracketed by barriers so that every rank reports
/// the time of the slowest.
pub fn barrier_timed<R>(world: &mut World, f: impl FnOnce(&mut World) -> R) -> (R, f64) {
    world.barrier();
    let t0 = Instant::now();
    let r = f(world);
    world.barrier();
    (r, t0.elapsed().as_secs_f64())
}

/// Whether every rank wants another unit of work; `mine` is this rank's
/// view of the clock. Collective, so all ranks take the same branch.
pub fn all_agree(world: &mut World, mine: bool) -> bool {
    world.all_reduce(mine as u64, |a, b| a & b) == 1
}

/// The particles each block of this rank holds, as the drivers want them.
pub fn local_of(sim: &Simulation) -> Local {
    sim.blocks
        .iter()
        .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
        .collect()
}

/// How far the seed moves the deck's initial amplitude, either way.
const AMPLITUDE_JITTER: f64 = 0.02;

/// `hacc` deck of every simulated workload: the paper-like deck at `np`
/// particles per dimension, its initial amplitude scaled by a seeded factor
/// within ±2 %.
///
/// The deck keeps its own phase seed. Phase realisations of a box this
/// small are different problems — over ten of them the in-situ loop's wall
/// spread by 17 %, peak memory by 36 %, and four dropped cells the default
/// ghost radius could not certify — so a benchmark seed that picked the
/// realisation would measure the realisation. Scaling the amplitude moves
/// every particle, at every step, and leaves the amount of work where it
/// was.
pub fn deck(cfg: &Config, np: usize) -> SimParams {
    let base = SimParams::paper_like(np);
    let u = Rng::new(cfg.seed ^ 0xDEC4_0000_0000_0004).range(-1.0, 1.0);
    SimParams {
        initial_delta_rms: base.initial_delta_rms * (1.0 + AMPLITUDE_JITTER * u),
        ..base
    }
}

/// An evolved snapshot: the deck run for all its steps on [`NRANKS`] ranks.
/// Returns every particle, sorted by id, and the wall seconds of one step
/// (mean, slowest rank).
pub fn evolved_snapshot(cfg: &Config, np: usize) -> (Vec<(u64, Vec3)>, f64) {
    let params = deck(cfg, np);
    let per_rank = Runtime::run(NRANKS, |world| {
        let mut sim = Simulation::init(world, params, NBLOCKS);
        let ((), wall) = barrier_timed(world, |w| sim.run_steps(w, params.nsteps));
        let ps: Vec<(u64, Vec3)> = sim.local_particles().map(|p| (p.id, p.pos)).collect();
        (ps, wall / params.nsteps as f64)
    });
    let step_s = per_rank[0].1;
    let mut all: Vec<(u64, Vec3)> = per_rank.into_iter().flat_map(|r| r.0).collect();
    all.sort_by_key(|&(id, _)| id);
    (all, step_s)
}

/// The fixed-radius tessellation pipeline recomposed from the public
/// pieces the driver itself calls, with a span around each: barrier →
/// `resolve_ghost` → `exchange_ghosts` → `tessellate_block` per owned
/// block → barrier → `write_tessellation`. The barriers make a rank's
/// wait for the other show up as `diy::comm` time instead of inflating
/// the first collective after it.
#[allow(clippy::too_many_arguments)]
pub fn recomposed_tessellate(
    world: &mut World,
    rec: &mut Recorder,
    dec: &Decomposition,
    asn: &Assignment,
    local: &Local,
    params: &TessParams,
    path: &Path,
    step: u64,
) -> std::io::Result<(BTreeMap<u64, MeshBlock>, TessStats, u64)> {
    rec.scope(span::L_COMM, step, || world.barrier());
    let ghost = rec.scope(span::L_GHOST, step, || {
        tess::driver::resolve_ghost(world, dec, local, params.ghost)
    });
    let ghosts = rec.scope(span::L_GHOST, step, || {
        tess::ghost::exchange_ghosts(world, dec, asn, local, ghost)
    });
    let mut blocks = BTreeMap::new();
    let mut stats = TessStats::default();
    for (&gid, own) in local {
        let halo = ghosts.get(&gid).map_or(&[][..], Vec::as_slice);
        let (block, s) = rec.scope(span::L_BLOCK, gid, || {
            tess::block::tessellate_block(gid, dec.block_bounds(gid), own, halo, ghost, params)
        });
        stats = stats.merge(s);
        blocks.insert(gid, block);
    }
    stats.ghost_rounds = 1;
    rec.scope(span::L_COMM, step, || world.barrier());
    let bytes = rec.scope(span::L_IO, step, || {
        tess::io::write_tessellation(world, path, &blocks)
    })?;
    Ok((blocks, stats, bytes))
}

/// Sum of the cell volumes of a set of blocks.
pub fn volume_sum<'a>(blocks: impl IntoIterator<Item = &'a MeshBlock>) -> f64 {
    blocks
        .into_iter()
        .flat_map(|b| b.cells.iter().map(|c| c.volume))
        .sum()
}

/// Site id → (volume, area) over a set of blocks.
pub fn cell_measures<'a>(
    blocks: impl IntoIterator<Item = &'a MeshBlock>,
) -> BTreeMap<u64, (f64, f64)> {
    let mut m = BTreeMap::new();
    for b in blocks {
        for c in &b.cells {
            m.insert(b.site_id_of(c), (c.volume, c.area));
        }
    }
    m
}

/// Site id → (volume bits, area bits, sorted neighbour ids): the
/// fingerprint two meshes of the same particles must share exactly.
pub fn cell_bits<'a>(
    blocks: impl IntoIterator<Item = &'a MeshBlock>,
) -> BTreeMap<u64, (u64, u64, Vec<u64>)> {
    let mut m = BTreeMap::new();
    for b in blocks {
        for c in &b.cells {
            let mut nb: Vec<u64> = c.faces.iter().map(|f| f.neighbor).collect();
            nb.sort_unstable();
            m.insert(b.site_id_of(c), (c.volume.to_bits(), c.area.to_bits(), nb));
        }
    }
    m
}

/// Same sites, volumes and areas within [`REL_TOL`]: `Ok(cells)` or what
/// differed first.
pub fn same_measures(
    a: &BTreeMap<u64, (f64, f64)>,
    b: &BTreeMap<u64, (f64, f64)>,
) -> Result<usize, String> {
    if a.len() != b.len() {
        return Err(format!("{} cells against {}", a.len(), b.len()));
    }
    let close = |x: f64, y: f64| (x - y).abs() <= REL_TOL * x.abs().max(y.abs());
    for (id, &(va, aa)) in a {
        match b.get(id) {
            None => return Err(format!("site {id} only on one side")),
            Some(&(vb, ab)) if !close(va, vb) || !close(aa, ab) => {
                return Err(format!(
                    "site {id}: volume {va} against {vb}, area {aa} against {ab}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(a.len())
}

/// Check that the cells of a complete mesh fill the box.
pub fn check_volume(out: &mut Outcome, what: &str, stats: &TessStats, volume: f64, domain: &Aabb) {
    if stats.incomplete > 0 {
        out.note(format!(
            "{what}: {} cells dropped as incomplete, volume sum not checked",
            stats.incomplete
        ));
        return;
    }
    let rel = (volume - domain.volume()).abs() / domain.volume();
    out.check(
        &format!("{what}: cell volumes fill the box"),
        rel <= REL_TOL,
        format!("relative error {rel:.3e} over {} cells", stats.cells),
    );
}

/// Microbenchmark of `diy::comm`: microseconds per barrier and per
/// all-reduce over 1 000 calls on [`NRANKS`] ranks.
pub fn comm_micro() -> (f64, f64) {
    const CALLS: u32 = 1000;
    let per_rank = Runtime::run(NRANKS, |world| {
        let ((), barrier_s) = barrier_timed(world, |w| {
            for _ in 0..CALLS {
                w.barrier();
            }
        });
        let (sum, reduce_s) = barrier_timed(world, |w| {
            (0..CALLS as u64).fold(0, |acc, i| acc ^ w.all_reduce(i, |a, b| a + b))
        });
        std::hint::black_box(sum);
        (barrier_s, reduce_s)
    });
    let us = |s: f64| s * 1e6 / CALLS as f64;
    (us(per_rank[0].0), us(per_rank[0].1))
}

/// The particle-count-weighted block → rank assignment (what the service
/// and the k-d scheme pair their decompositions with).
pub fn weighted_assignment(dec: &Decomposition, points: &[Vec3]) -> Assignment {
    let mut weights = vec![0u64; dec.nblocks()];
    for &p in points {
        weights[dec.block_of_point(p) as usize] += 1;
    }
    Assignment::weighted(&weights, NRANKS)
}

/// Time one decomposition build over `points` and report its balance.
pub fn decomposition_metrics(
    out: &mut Outcome,
    scheme: DecompScheme,
    domain: Aabb,
    asn: &Assignment,
    points: &[Vec3],
) {
    let t0 = Instant::now();
    let dec = scheme.build(domain, asn.nblocks, [true; 3], points);
    out.set("decomp.build_ms", t0.elapsed().as_secs_f64() * 1e3);
    let bal = BalanceStats::measure(&dec, asn, points);
    out.set("decomp.rank_imbalance", bal.rank_imbalance());
}

/// The work counters a tessellation returns, as `ghost.*` and `kernel.*`
/// per-layer metrics.
pub fn set_tess_counters(out: &mut Outcome, s: &TessStats) {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("ghost.rounds", s.ghost_rounds as f64);
    out.set("ghost.particles_received", s.ghosts_received as f64);
    out.set("ghost.per_site", per(s.ghosts_received, s.sites));
    out.set("kernel.cells_computed", s.cells_computed as f64);
    out.set("kernel.cells_reused", s.cells_reused as f64);
    out.set("kernel.useful_ratio", per(s.cells, s.cells_computed));
    out.set(
        "kernel.candidates_per_cell",
        per(s.candidates_tested, s.cells_computed),
    );
    out.set("kernel.prefilter_skipped", s.prefilter_skipped as f64);
}

/// Self times of the recomposed pipeline's layers, as `ghost.*` and
/// `kernel.*` metrics; `computed` is the cell computations they cover.
pub fn set_pipeline_times(out: &mut Outcome, totals: &Totals, computed: u64) {
    out.set("ghost.exchange_s", totals.max_s(span::L_GHOST));
    out.set("kernel.block_s", totals.max_s(span::L_BLOCK));
    out.set(
        "kernel.us_per_cell",
        totals.sum_s(span::L_BLOCK) * 1e6 / computed as f64,
    );
}

/// `output.*` of a mesh written in `seconds`.
pub fn set_output(out: &mut Outcome, bytes: u64, seconds: f64) {
    out.set("output.write_s", seconds);
    out.set("output.bytes", bytes as f64);
    out.set("output.mb_per_s", bytes as f64 / 1e6 / seconds);
}

/// `input.*` of a mesh read in `seconds`.
pub fn set_input(out: &mut Outcome, bytes: u64, seconds: f64) {
    out.set("input.read_s", seconds);
    out.set("input.mb_per_s", bytes as f64 / 1e6 / seconds);
}

/// What every traced run ends with: the `diy::comm` microbenchmark, the
/// tiling check, and the spans written as Chrome-trace JSON beside the
/// result files. `unrooted` is the share of the traced wall outside every
/// root span.
pub fn finish_trace(cfg: &Config, out: &mut Outcome, spans: &[Span], unrooted: f64) {
    let (barrier_us, all_reduce_us) = comm_micro();
    out.set("comm.barrier_us", barrier_us);
    out.set("comm.all_reduce_us", all_reduce_us);
    out.set("comm.wait_s", Totals::of(spans).max_s(span::L_COMM));
    let err = span::tiling_error(spans).max(unrooted);
    out.set("trace.tiling_error", err);
    out.check(
        "layer self times tile the traced wall",
        err < 0.05,
        format!(
            "{:.2} % of the traced wall is in no layer span",
            err * 100.0
        ),
    );
    let path = cfg.out_file(out.workload, "trace.json");
    match std::fs::write(&path, span::chrome_trace_json(out.workload, spans)) {
        Ok(()) => out.note(format!("{} spans in {}", spans.len(), path.display())),
        Err(e) => out.check("trace written", false, format!("{}: {e}", path.display())),
    }
}

/// Cells per second of the driver on one rank, for the parallel
/// efficiency of the two-rank run on the same input.
pub fn one_rank_cells_per_s(dec: &Decomposition, all: &Local, params: &TessParams) -> f64 {
    let r = Runtime::run(1, |world| {
        let asn = Assignment::new(dec.nblocks(), 1);
        let t0 = Instant::now();
        let r = tess::tessellate(world, dec, &asn, all, params);
        r.stats.cells as f64 / t0.elapsed().as_secs_f64()
    });
    r[0]
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
