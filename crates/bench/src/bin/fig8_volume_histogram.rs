//! Figure 8 — histogram of cell volume at t = 99.
//!
//! Paper setup: 32³ particles evolved 100 steps; 100 bins over
//! [0.02, 2] (Mpc/h)³, bin width 0.02; reported skewness 8.9, kurtosis 85,
//! and the observation that 75% of cells fall in the smallest 10% of the
//! volume range.
//!
//! Expected shape: strongly right-skewed distribution, most mass at tiny
//! volumes with a long thin tail.

use bench_harness::{evolved_particles, output_dir, Table};
use geometry::Aabb;
use postprocess::Histogram;
use tess::{tessellate_serial, TessParams};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let np = env_usize("BENCH_NP", 32);
    let nsteps = env_usize("BENCH_STEPS", 100);
    println!("# Figure 8: cell volume histogram ({np}^3 particles, t = {nsteps})");

    let particles = evolved_particles(np, nsteps);
    let (block, stats) = tessellate_serial(
        &particles,
        Aabb::cube(np as f64),
        [false; 3],
        &TessParams::default(),
    );
    println!(
        "# {} cells ({} incomplete dropped)",
        stats.cells, stats.incomplete
    );

    let volumes: Vec<f64> = block.cells.iter().map(|c| c.volume).collect();
    // paper's binning
    let h = Histogram::from_samples(volumes.iter().copied(), 0.02, 2.0, 100);
    println!("# 100 bins, range [0.02, 2], bin width 0.02");
    println!("# skewness {:.2}  (paper: 8.9)", h.skewness());
    println!("# kurtosis {:.1}  (paper: 85)", h.kurtosis());
    println!(
        "# fraction of in-range cells in smallest 10% of the range: {:.1}%",
        100.0 * h.fraction_below(0.1)
    );
    let below = volumes.iter().filter(|&&v| v < 0.1 * 2.0).count();
    println!(
        "# fraction of ALL cells with volume below 10% of the range (0.2): {:.1}%  (paper: 75%)",
        100.0 * below as f64 / volumes.len() as f64
    );
    println!(
        "# cells below 0.02 (off-histogram small cells): {}",
        h.outliers
    );

    let mut table = Table::new(&["BinCenter", "Count"]);
    for (center, count) in h.rows() {
        table.row(&[format!("{center:.3}"), count.to_string()]);
    }
    let csv_path = output_dir().join("fig8_histogram.csv");
    let csv: String = h.rows().iter().map(|(c, n)| format!("{c},{n}\n")).collect();
    std::fs::write(&csv_path, csv).expect("write csv");
    println!("# full histogram written to {}", csv_path.display());

    // print a compact view: every 5th bin
    let mut compact = Table::new(&["BinCenter", "Count", "Bar"]);
    let max = h.rows().iter().map(|r| r.1).max().unwrap_or(1).max(1);
    for (center, count) in h.rows().iter().step_by(5) {
        let bar = "#".repeat((count * 40 / max) as usize);
        compact.row(&[format!("{center:.2}"), count.to_string(), bar]);
    }
    compact.print();
}
