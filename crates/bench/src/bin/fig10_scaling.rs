//! Figure 10 — strong and weak scaling of the tessellation.
//!
//! Paper setup: strong scaling for 128³–1024³ particles over 128–16384
//! processes; weak scaling at 16384 particles/process. Total tessellation
//! time including the write. Reported efficiencies: strong 30–41%, weak
//! 86%.
//!
//! Scaled default here: strong scaling for 16³ and 32³ over 1–8 ranks;
//! weak scaling holding particles/rank fixed at 16³/1 → 32³/8 (→ 64³/64
//! with BENCH_FULL=1). Times are thread-CPU critical path, so the curves
//! measure algorithmic scaling even on a single-core host.
//!
//! Expected shape: strong-scaling curves slope down with less-than-ideal
//! efficiency (duplicated ghost work grows with block count); weak scaling
//! per particle is near flat.

use std::collections::BTreeMap;
use std::time::Instant;

use bench_harness::{bytes_h, output_dir, secs, Table};
use diy::comm::Runtime;
use diy::metrics::collect_report;
use geometry::Vec3;
use hacc::SimParams;
use tess::{tessellate, TessParams, PHASE_GHOST_EXCHANGE, PHASE_OUTPUT, PHASE_VORONOI};

/// One tessellation (including write), returning the critical-path seconds
/// summed over the tessellation phases of the merged run report.
fn tess_time(np: usize, nsteps: usize, nranks: usize) -> f64 {
    let params = SimParams::paper_like(np);
    let out = output_dir().join(format!("fig10_np{np}_r{nranks}.tess"));
    let times = Runtime::run(nranks, |world| {
        let sim = bench_harness::run_sim(world, params, nranks, nsteps);
        let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
            .blocks
            .iter()
            .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
            .collect();
        let r = tessellate(
            world,
            &sim.dec,
            &sim.asn,
            &local,
            &TessParams::default().with_ghost(4.0).with_min_volume(0.2),
        );
        tess::io::write_tessellation(world, &out, &r.blocks).expect("write");
        let report = collect_report(world);
        report.cpu_max(PHASE_GHOST_EXCHANGE)
            + report.cpu_max(PHASE_VORONOI)
            + report.cpu_max(PHASE_OUTPUT)
    });
    times[0]
}

/// One row of the memory sweep.
struct MemoryPoint {
    /// Allocator high-water mark over the run (bytes, process-wide, from
    /// `diy::mem` after `reset_peak`).
    peak_live_bytes: u64,
    /// Kernel-reported peak RSS (`VmHWM`, kB; 0 off Linux).
    peak_rss_kb: u64,
    /// Serialized mesh payload bytes in the culled output file.
    payload_bytes: u64,
    wall_s: f64,
}

/// One bounded-memory streaming tessellation of the same workload,
/// recording the allocator high-water mark over the run, the process
/// `VmHWM`, and the real serialized byte counts the writer reports.
fn memory_point(np: usize, nsteps: usize, nranks: usize) -> MemoryPoint {
    let params = SimParams::paper_like(np);
    let out = output_dir().join(format!("fig10_mem_np{np}_r{nranks}.tess"));
    let out_ref = &out;
    diy::mem::reset_peak();
    let before = diy::mem::stats();
    let t0 = Instant::now();
    let rows = Runtime::run(nranks, |world| {
        let sim = bench_harness::run_sim(world, params, nranks, nsteps);
        let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
            .blocks
            .iter()
            .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
            .collect();
        let s = tess::tessellate_streaming(
            world,
            &sim.dec,
            &sim.asn,
            &local,
            &TessParams::default().with_ghost(4.0).with_min_volume(0.2),
            out_ref,
        )
        .expect("streaming write");
        s.payload_bytes
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = diy::mem::stats();
    let (_, peak_rss_kb) = diy::mem::proc_status_kb();
    MemoryPoint {
        peak_live_bytes: after
            .peak_live_bytes
            .saturating_sub(before.live_bytes.min(after.peak_live_bytes)),
        peak_rss_kb,
        payload_bytes: rows[0],
        wall_s,
    }
}

fn main() {
    let full = std::env::var("BENCH_FULL").is_ok();
    println!("# Figure 10: strong and weak scaling of tessellation (incl. write)");

    // Strong scaling.
    let mut strong = Table::new(&[
        "Particles",
        "Ranks",
        "TessTime(s)",
        "Speedup",
        "Efficiency%",
    ]);
    let sizes: Vec<(usize, usize)> = if full {
        vec![(16, 20), (32, 20), (64, 5)]
    } else {
        vec![(16, 20), (32, 20)]
    };
    for &(np, nsteps) in &sizes {
        let mut base = None;
        for nranks in [1usize, 2, 4, 8] {
            let t = tess_time(np, nsteps, nranks);
            let b = *base.get_or_insert(t);
            let speedup = b / t;
            let eff = 100.0 * speedup / nranks as f64;
            strong.row(&[
                format!("{np}^3"),
                nranks.to_string(),
                secs(t),
                format!("{speedup:.2}"),
                format!("{eff:.0}"),
            ]);
        }
    }
    println!("## Strong scaling (paper efficiency: 30-41%)");
    strong.print();

    // Weak scaling: fixed particles/rank (factor-8 steps, like the paper).
    let mut weak = Table::new(&[
        "Particles",
        "Ranks",
        "Particles/rank",
        "TessTime(s)",
        "Time/particle(us)",
        "Efficiency%",
    ]);
    let weak_configs: Vec<(usize, usize, usize)> = if full {
        vec![(16, 1, 20), (32, 8, 20), (64, 64, 5)]
    } else {
        vec![(16, 1, 20), (32, 8, 20)]
    };
    let mut base_per_particle = None;
    for &(np, nranks, nsteps) in &weak_configs {
        let t = tess_time(np, nsteps, nranks);
        let n = (np * np * np) as f64;
        let per = t / n * 1e6;
        // weak efficiency: ideal time is flat, i.e. per-particle time
        // scales as 1/ranks
        let b = *base_per_particle.get_or_insert(per);
        let ideal = b / nranks as f64;
        let eff = 100.0 * ideal / per;
        weak.row(&[
            format!("{np}^3"),
            nranks.to_string(),
            format!("{}", (np * np * np) / nranks),
            secs(t),
            format!("{per:.2}"),
            format!("{eff:.0}"),
        ]);
    }
    println!("## Weak scaling (paper efficiency: 86%)");
    weak.print();

    // Memory sweep: the same workloads through the bounded-memory
    // streaming driver, recording allocator peak, VmHWM, and the real
    // serialized byte counts (culled, min_volume 0.2).
    let mut mem = Table::new(&[
        "Particles",
        "Ranks",
        "PeakAlloc",
        "VmHWM(kB)",
        "Bytes/particle",
        "Wall(s)",
    ]);
    let mem_configs: Vec<(usize, usize, usize)> = if full {
        vec![(16, 20, 4), (32, 20, 8), (64, 5, 8)]
    } else {
        vec![(16, 20, 4), (32, 20, 8)]
    };
    for &(np, nsteps, nranks) in &mem_configs {
        let e = memory_point(np, nsteps, nranks);
        mem.row(&[
            format!("{np}^3"),
            nranks.to_string(),
            bytes_h(e.peak_live_bytes),
            e.peak_rss_kb.to_string(),
            format!("{:.1}", e.payload_bytes as f64 / (np * np * np) as f64),
            secs(e.wall_s),
        ]);
    }
    println!("## Memory sweep (streaming output, culled; paper: ~100 B/particle culled)");
    mem.print();
}
