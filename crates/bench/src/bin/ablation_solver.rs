//! Ablation: rank-0 spectral solve vs. distributed slab FFT.
//!
//! DESIGN.md documents the reduce-to-rank-0 Poisson solve as a serial
//! bottleneck standing in for HACC's distributed spectral solver; the
//! `hacc::slabfft` module removes it. This harness measures both per-step
//! critical-path times over rank counts: the Rank0 curve should flatten
//! (Amdahl) while the Slab curve keeps scaling the FFT work.

use bench_harness::{max_over_ranks, secs, Table};
use diy::comm::Runtime;
use diy::timing::thread_cpu_time;
use hacc::sim::SolverKind;
use hacc::{SimParams, Simulation};

fn step_time(np: usize, nranks: usize, solver: SolverKind, nsteps: usize) -> f64 {
    let params = SimParams {
        solver,
        ..SimParams::paper_like(np)
    };
    let times = Runtime::run(nranks, |world| {
        let mut sim = Simulation::init(world, params, nranks.max(2));
        // warm-up step excluded from timing
        sim.step(world);
        let t0 = thread_cpu_time();
        sim.run_steps(world, nsteps);
        max_over_ranks(world, (thread_cpu_time() - t0) / nsteps as f64)
    });
    times[0]
}

fn main() {
    let np = std::env::var("BENCH_NP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let nsteps = 5;
    println!("# Ablation: gravity-step time per step, Rank0 vs Slab solver ({np}^3)");
    let mut table = Table::new(&["Ranks", "Rank0(s/step)", "Slab(s/step)", "Slab/Rank0"]);
    for nranks in [1usize, 2, 4, 8] {
        let t0 = step_time(np, nranks, SolverKind::Rank0, nsteps);
        let t1 = step_time(np, nranks, SolverKind::Slab, nsteps);
        table.row(&[
            nranks.to_string(),
            secs(t0),
            secs(t1),
            format!("{:.2}", t1 / t0),
        ]);
    }
    table.print();
    println!("# expectation: Rank0 flattens with ranks (serial FFT); Slab keeps scaling");
}
