//! `clustered_batch`: a halo-like corpus with four decades of density
//! contrast, cut by the k-d scheme and tessellated with adaptive ghosts.
//! Multi-round delta exchange, incremental reuse, k-d balance and void
//! cells with huge candidate sets all matter here and are idle in
//! `insitu_stream`.

use std::io;
use std::time::Instant;

use diy::comm::{Runtime, World};
use diy::decomposition::{Assignment, DecompScheme, Decomposition};
use diy::mem;
use geometry::{Aabb, Vec3};
use tess::{TessParams, TessStats};

use super::{
    all_agree, barrier_timed, cell_measures, check_volume, decomposition_metrics, finish_trace,
    mib, one_rank_cells_per_s, recomposed_tessellate, same_measures, set_output,
    set_pipeline_times, set_tess_counters, volume_sum, weighted_assignment, Local,
};
use crate::corpus::{halo_corpus, partition, HALO_BOX};
use crate::report::Outcome;
use crate::span::{self, Recorder, Totals};
use crate::{stats, Config, NRANKS};

const SETUP_REPS: usize = 5;

/// Blocks of the k-d decomposition, two per rank. The adaptive ghost
/// radius is capped at the thinnest block's extent; with more blocks the
/// cuts through the dense octant get thin enough that a few void cells on
/// their far side can never be certified, and the workload must drop none.
const BLOCKS: usize = 4;

/// The k-d cut over all points (the corpus is smaller than any sample cap).
const SCHEME: DecompScheme = DecompScheme::Kd { sample: 0 };

struct Input {
    dec: Decomposition,
    asn: Assignment,
    locals: Vec<Local>,
    positions: Vec<Vec3>,
}

/// Corpus, k-d decomposition, weighted assignment and per-rank particles.
fn set_up(seed: u64) -> Input {
    let particles = halo_corpus(seed);
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = SCHEME.build(Aabb::cube(HALO_BOX), BLOCKS, [true; 3], &positions);
    let asn = weighted_assignment(&dec, &positions);
    let locals = (0..NRANKS)
        .map(|r| partition(&particles, &dec, &asn, r))
        .collect();
    Input {
        dec,
        asn,
        locals,
        positions,
    }
}

struct Rank {
    pass_s: Vec<f64>,
    /// Counters of one adaptive pass, merged over ranks.
    stats: TessStats,
    volume: f64,
    write_s: f64,
    file_bytes: u64,
    peak_live: u64,
    allocs: u64,
    /// Traced run: recomposed fixed-radius pass against the driver's.
    fixed: Option<Fixed>,
    rec: Recorder,
}

struct Fixed {
    recomposed_s: f64,
    driver_s: f64,
    stats: TessStats,
    same: Result<String, String>,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new("clustered_batch");
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        input = Some(set_up(cfg.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("set up at least once");
    let epoch = Instant::now();
    let ranks = Runtime::run(NRANKS, |world| rank_main(world, cfg, &input, epoch));
    let ranks: Vec<Rank> = match ranks.into_iter().collect() {
        Ok(r) => r,
        Err(e) => {
            out.check("tessellation output written", false, e.to_string());
            return out;
        }
    };
    let r0 = &ranks[0];
    let domain = Aabb::cube(HALO_BOX);
    let walls: Vec<f64> = r0.pass_s.iter().map(|s| s * 1e3).collect();
    let (tail, tail_p) = stats::tail(&walls);
    let pass_s = stats::median(&r0.pass_s);
    let s = r0.stats;

    out.attempted = s.sites;
    out.failed = s.incomplete;
    out.set("setup_s", stats::median(&setup_s));
    out.set("op_p50_ms", pass_s * 1e3);
    out.set("op_tail_ms", tail);
    out.set("items_per_s", s.cells as f64 / pass_s);
    out.set("peak_mem_mb", mib(r0.peak_live));
    out.set("mesh_bytes_per_cell", r0.file_bytes as f64 / s.cells as f64);
    out.note(format!(
        "{} timed passes after 1 warm pass (tail = p{:.0}); {} setups; {} ghost rounds, \
         {:.1} candidates/cell, {} cells reused",
        walls.len(),
        tail_p * 100.0,
        setup_s.len(),
        s.ghost_rounds,
        s.candidates_tested as f64 / s.cells_computed.max(1) as f64,
        s.cells_reused
    ));
    check_volume(&mut out, "adaptive pass", &s, r0.volume, &domain);

    if cfg.trace {
        let fixed = r0
            .fixed
            .as_ref()
            .expect("traced run recomposes the pipeline");
        for f in ranks.iter().filter_map(|r| r.fixed.as_ref()) {
            out.check_result("recomposed pipeline matches the driver mesh", &f.same);
        }
        out.set("trace.overhead_ratio", fixed.recomposed_s / fixed.driver_s);
        out.note(format!(
            "layer times are of the fixed-radius pipeline ({} ghosts, {} incomplete); \
             counters are of the adaptive pass",
            fixed.stats.ghosts_received, fixed.stats.incomplete
        ));
        let (write_s, file_bytes) = (r0.write_s, r0.file_bytes);
        let (peak_live, allocs) = (r0.peak_live, r0.allocs);
        let fixed_computed = fixed.stats.cells_computed;
        let spans = span::merge(ranks.into_iter().map(|r| r.rec).collect());
        set_pipeline_times(&mut out, &Totals::of(&spans), fixed_computed);
        set_tess_counters(&mut out, &s);
        set_output(&mut out, file_bytes, write_s);
        out.set(
            "mem.allocs_per_cell",
            allocs as f64 / (s.cells * walls.len() as u64) as f64,
        );
        out.set("mem.peak_live_mb", mib(peak_live));
        decomposition_metrics(&mut out, SCHEME, domain, &input.asn, &input.positions);
        let all: Local = input
            .locals
            .iter()
            .flatten()
            .map(|(g, v)| (*g, v.clone()))
            .collect();
        let one_rank = one_rank_cells_per_s(&input.dec, &all, &params());
        out.set("kernel.cells_per_s_1rank", one_rank);
        out.set(
            "kernel.parallel_efficiency",
            s.cells as f64 / pass_s / (NRANKS as f64 * one_rank),
        );
        finish_trace(cfg, &mut out, &spans, 0.0);
    }
    out
}

fn params() -> TessParams {
    TessParams::default().with_adaptive_ghost()
}

fn rank_main(world: &mut World, cfg: &Config, input: &Input, epoch: Instant) -> io::Result<Rank> {
    let (dec, asn) = (&input.dec, &input.asn);
    let local = &input.locals[world.rank()];
    let path = cfg.out_file("clustered_batch", "tess");
    let mut rec = Recorder::new(cfg.trace, world.rank() as u32, epoch);

    // warm pass: its mesh is the one whose volume is checked
    let warm = tess::tessellate(world, dec, asn, local, &params());
    let stats = world.all_reduce(warm.stats, TessStats::merge);
    let volume = world.all_reduce(volume_sum(warm.blocks.values()), |a, b| a + b);
    drop(warm);

    world.barrier();
    if world.rank() == 0 {
        mem::reset_peak();
    }
    let allocs0 = mem::stats().alloc_count;
    let phase = Instant::now();
    let mut pass_s = Vec::new();
    let mesh = loop {
        let (r, s) = barrier_timed(world, |w| tess::tessellate(w, dec, asn, local, &params()));
        pass_s.push(s);
        if cfg.quick || !all_agree(world, phase.elapsed().as_secs_f64() < cfg.seconds) {
            break r.blocks;
        }
    };
    world.barrier();
    let m = mem::stats();
    let (file_bytes, write_s) =
        barrier_timed(world, |w| tess::io::write_tessellation(w, &path, &mesh));
    let file_bytes = file_bytes?;
    drop(mesh);

    let fixed = if cfg.trace {
        let fixed_params = TessParams::default();
        rec.open(span::ROOT, 0);
        let t0 = Instant::now();
        let (blocks, s, _) =
            recomposed_tessellate(world, &mut rec, dec, asn, local, &fixed_params, &path, 0)?;
        rec.scope(span::L_COMM, 0, || world.barrier());
        let recomposed_s = t0.elapsed().as_secs_f64();
        rec.close();
        let (driver, driver_s) = barrier_timed(world, |w| {
            let r = tess::tessellate(w, dec, asn, local, &fixed_params);
            tess::io::write_tessellation(w, &path, &r.blocks).map(|_| r)
        });
        let driver = driver?;
        Some(Fixed {
            recomposed_s,
            driver_s,
            stats: world.all_reduce(s, TessStats::merge),
            same: same_measures(
                &cell_measures(blocks.values()),
                &cell_measures(driver.blocks.values()),
            )
            .map(|n| format!("rank {}: {n} cells within 1e-9", world.rank())),
        })
    } else {
        None
    };

    Ok(Rank {
        pass_s,
        stats,
        volume,
        write_s,
        file_bytes,
        peak_live: m.peak_live_bytes,
        allocs: m.alloc_count - allocs0,
        fixed,
        rec,
    })
}
