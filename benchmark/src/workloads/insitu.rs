//! `insitu_stream`: the paper's loop. `hacc` steps a box on two ranks and
//! every 20th step the particles are tessellated and streamed to disk, so
//! simulation, ghost exchange, cell kernel and output all block the result
//! and the evolving input sweeps the kernel's work per cell.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use diy::comm::{Runtime, World};
use diy::decomposition::{Assignment, DecompScheme, Decomposition};
use diy::mem;
use geometry::{Aabb, Vec3};
use hacc::Simulation;
use tess::{MeshBlock, TessParams, TessStats};

use super::{
    all_agree, barrier_timed, cell_measures, check_volume, deck, decomposition_metrics,
    finish_trace, local_of, mib, one_rank_cells_per_s, recomposed_tessellate, same_measures,
    set_input, set_output, set_pipeline_times, set_tess_counters, volume_sum, Local,
};
use crate::report::Outcome;
use crate::span::{self, Recorder, Totals};
use crate::{stats, Config, NBLOCKS, NRANKS};

/// Analysis epochs per simulation loop.
const EPOCHS: usize = 5;
/// Times the input is generated, for the `setup_s` median.
const SETUP_REPS: usize = 15;

/// One 100-step loop, as one rank saw it.
#[derive(Default, Clone)]
struct LoopSample {
    wall_s: f64,
    step_s: f64,
    tess_s: f64,
    /// Wall of the last analysis epoch alone.
    last_tess_s: f64,
    /// Rank-local counters summed over the loop's epochs.
    stats: TessStats,
    file_bytes: u64,
    /// Size of the last epoch's file alone.
    last_file_bytes: u64,
}

struct Rank {
    setup_s: Vec<f64>,
    loops: Vec<LoopSample>,
    /// Counters of the last loop, merged over ranks.
    stats: TessStats,
    peak_live: u64,
    allocs: u64,
    dec: Decomposition,
    final_local: Local,
    /// The driver's mesh of the final state: counters, volume sum, wall.
    driver_stats: TessStats,
    driver_volume: f64,
    driver_s: f64,
    /// Traced run: wall of writing the driver's mesh, so that the recomposed
    /// epoch is compared with the same work done by the driver.
    driver_write_s: f64,
    read_s: f64,
    file_check: Result<String, String>,
    rec: Recorder,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new("insitu_stream");
    let epoch = Instant::now();
    let ranks = Runtime::run(NRANKS, |world| rank_main(world, cfg, epoch));
    let mut ranks: Vec<Rank> = match ranks.into_iter().collect() {
        Ok(r) => r,
        Err(e) => {
            out.check("tessellation output written", false, e.to_string());
            return out;
        }
    };
    let domain = Aabb::cube(cfg.np() as f64);
    let r0 = &ranks[0];
    let last = r0.loops.last().expect("at least one loop").clone();
    let walls: Vec<f64> = r0.loops.iter().map(|l| l.wall_s * 1e3).collect();
    let (tail, tail_p) = stats::tail(&walls);
    let tess_s: f64 = r0.loops.iter().map(|l| l.tess_s).sum();
    let step_s: f64 = r0.loops.iter().map(|l| l.step_s).sum();
    let cells = r0.stats.cells * r0.loops.len() as u64;

    out.attempted = r0.stats.sites + r0.driver_stats.sites;
    out.failed = r0.stats.incomplete + r0.driver_stats.incomplete;
    out.set("setup_s", stats::median(&r0.setup_s));
    out.set("op_p50_ms", stats::median(&walls));
    out.set("op_tail_ms", tail);
    out.set("items_per_s", cells as f64 / tess_s);
    out.set("peak_mem_mb", mib(r0.peak_live));
    out.set(
        "mesh_bytes_per_cell",
        last.file_bytes as f64 / r0.stats.cells as f64,
    );
    out.set("analysis_overhead_ratio", tess_s / step_s);
    out.note(format!(
        "{} loop(s) of {} steps and {EPOCHS} analysis epochs (tail = p{:.0}); {} setups; \
         analysis/simulation = {:.2}",
        walls.len(),
        deck(cfg, cfg.np()).nsteps,
        tail_p * 100.0,
        r0.setup_s.len(),
        tess_s / step_s
    ));

    check_volume(
        &mut out,
        "final state",
        &r0.driver_stats,
        r0.driver_volume,
        &domain,
    );
    for r in &ranks {
        let what = if cfg.trace {
            "recomposed pipeline matches the driver mesh"
        } else {
            "streamed file equals the accumulated mesh bit for bit"
        };
        out.check_result(what, &r.file_check);
    }

    if cfg.trace {
        let dec = r0.dec.clone();
        let final_local: Local = ranks
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.final_local))
            .collect();
        let r0 = &ranks[0];
        let driver_cells_per_s = r0.driver_stats.cells as f64 / r0.driver_s;
        let (driver_s, read_s) = (r0.driver_s + r0.driver_write_s, r0.read_s);
        let (peak_live, allocs, merged) = (r0.peak_live, r0.allocs, r0.stats);
        let spans = span::merge(ranks.into_iter().map(|r| r.rec).collect());
        let totals = Totals::of(&spans);
        let steps = totals.count(span::L_SIM) / NRANKS as u64;
        out.set("hacc.steps", steps as f64);
        out.set(
            "hacc.step_ms",
            totals.max_s(span::L_SIM) * 1e3 / steps as f64,
        );
        let nloops = walls.len() as u64;
        set_pipeline_times(&mut out, &totals, merged.cells_computed * nloops);
        set_tess_counters(&mut out, &merged);
        set_output(&mut out, last.file_bytes * nloops, totals.max_s(span::L_IO));
        set_input(&mut out, last.last_file_bytes, read_s);
        out.set("mem.allocs_per_cell", allocs as f64 / cells as f64);
        out.set("mem.peak_live_mb", mib(peak_live));
        // the recomposed last epoch against the driver on the same input
        out.set("trace.overhead_ratio", last.last_tess_s / driver_s);

        let positions: Vec<Vec3> = final_local.values().flatten().map(|&(_, p)| p).collect();
        let asn = Assignment::new(NBLOCKS, NRANKS);
        decomposition_metrics(&mut out, DecompScheme::Regular, domain, &asn, &positions);
        let one_rank = one_rank_cells_per_s(&dec, &final_local, &TessParams::default());
        out.set("kernel.cells_per_s_1rank", one_rank);
        out.set(
            "kernel.parallel_efficiency",
            driver_cells_per_s / (NRANKS as f64 * one_rank),
        );
        finish_trace(cfg, &mut out, &spans, 0.0);
    }
    out
}

fn rank_main(world: &mut World, cfg: &Config, epoch: Instant) -> io::Result<Rank> {
    let params = deck(cfg, cfg.np());
    let tparams = TessParams::default();
    let every = params.nsteps / EPOCHS;
    let path = cfg.out_file("insitu_stream", "tess");
    let mut rec = Recorder::new(cfg.trace, world.rank() as u32, epoch);

    let mut setup_s = Vec::new();
    let mut init = |world: &mut World| {
        let (sim, s) = barrier_timed(world, |w| Simulation::init(w, params, NBLOCKS));
        setup_s.push(s);
        sim
    };
    for _ in 1..SETUP_REPS {
        init(world);
    }
    let mut sim = init(world);

    world.barrier();
    if world.rank() == 0 {
        mem::reset_peak();
    }
    let allocs0 = mem::stats().alloc_count;
    let phase = Instant::now();
    let mut loops: Vec<LoopSample> = Vec::new();
    loop {
        let mut l = LoopSample::default();
        rec.open(span::ROOT, loops.len() as u64);
        world.barrier();
        let t0 = Instant::now();
        for step in 0..params.nsteps {
            let ts = Instant::now();
            rec.scope(span::L_SIM, step as u64, || sim.step(world));
            l.step_s += ts.elapsed().as_secs_f64();
            if (step + 1) % every != 0 {
                continue;
            }
            let local = local_of(&sim);
            let ta = Instant::now();
            let (s, bytes) = if cfg.trace {
                let (_, s, bytes) = recomposed_tessellate(
                    world,
                    &mut rec,
                    &sim.dec,
                    &sim.asn,
                    &local,
                    &tparams,
                    &path,
                    step as u64,
                )?;
                rec.scope(span::L_COMM, step as u64, || world.barrier());
                (s, bytes)
            } else {
                world.barrier();
                let s =
                    tess::tessellate_streaming(world, &sim.dec, &sim.asn, &local, &tparams, &path)?;
                world.barrier();
                (s.stats, s.file_bytes)
            };
            l.last_tess_s = ta.elapsed().as_secs_f64();
            l.tess_s += l.last_tess_s;
            l.stats = l.stats.merge(s);
            l.file_bytes += bytes;
            l.last_file_bytes = bytes;
        }
        rec.scope(span::L_COMM, 0, || world.barrier());
        l.wall_s = t0.elapsed().as_secs_f64();
        rec.close();
        loops.push(l);
        if !all_agree(world, phase.elapsed().as_secs_f64() < cfg.seconds) {
            break;
        }
        sim = init(world);
    }
    world.barrier();
    let m = mem::stats();
    let last = loops.last().expect("one loop ran").stats;
    let stats = world.all_reduce(last, TessStats::merge);

    // Untimed checks on the final state, which the last epoch analysed.
    let local = local_of(&sim);
    let (driver, driver_s) = barrier_timed(world, |w| {
        tess::tessellate(w, &sim.dec, &sim.asn, &local, &tparams)
    });
    let driver_stats = world.all_reduce(driver.stats, TessStats::merge);
    let driver_write_s = if cfg.trace {
        let beside = cfg.out_file("insitu_stream", "driver.tess");
        let (bytes, s) = barrier_timed(world, |w| {
            tess::io::write_tessellation(w, &beside, &driver.blocks)
        });
        bytes?;
        s
    } else {
        0.0
    };
    let driver_volume = world.all_reduce(volume_sum(driver.blocks.values()), |a, b| a + b);
    let (file, read_s) = barrier_timed(world, |w| tess::io::read_tessellation_parallel(w, &path));
    // a parallel read hands each rank the blocks it wrote (same contiguous
    // split of the gid-sorted index as the block assignment)
    let file: BTreeMap<u64, MeshBlock> = file?.into_iter().map(|b| (b.gid, b)).collect();
    let file_check = if cfg.trace {
        same_measures(
            &cell_measures(file.values()),
            &cell_measures(driver.blocks.values()),
        )
        .map(|n| format!("rank {}: {n} cells within 1e-9", world.rank()))
    } else {
        use diy::Encode;
        let same = file.len() == driver.blocks.len()
            && file
                .iter()
                .all(|(gid, b)| driver.blocks.get(gid).map(Encode::to_bytes) == Some(b.to_bytes()));
        if same {
            Ok(format!("rank {}: {} blocks", world.rank(), file.len()))
        } else {
            Err(format!("rank {}: blocks differ", world.rank()))
        }
    };

    Ok(Rank {
        setup_s,
        loops,
        stats,
        peak_live: m.peak_live_bytes,
        allocs: m.alloc_count - allocs0,
        dec: sim.dec.clone(),
        final_local: local,
        driver_stats,
        driver_volume,
        driver_s,
        driver_write_s,
        read_s,
        file_check,
        rec,
    })
}
