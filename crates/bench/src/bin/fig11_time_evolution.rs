//! Figure 11 — time-varying void evolution.
//!
//! Paper setup: 32³ particles, tessellation output every 10 steps of 100;
//! the figure shows the cells and the cell density-contrast histograms at
//! t = 11, 21, 31 with skewness 1.6 → 2 → 4.5 and kurtosis 4.1 → 5.5 → 23,
//! and the range of δ expanding over time.
//!
//! Expected shape: near-symmetric distribution at early times, then
//! growing skewness/kurtosis as perturbation theory breaks down; small
//! cells multiply while large cells grow.

use bench_harness::{evolved_particles, output_dir, Table};
use geometry::Aabb;
use postprocess::render::{render_to_file, RenderOptions};
use postprocess::{density_contrast, Histogram};
use tess::{tessellate_serial, TessParams};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let np = env_usize("BENCH_NP", 32);
    println!("# Figure 11: void evolution over time ({np}^3 particles)");
    let domain = Aabb::cube(np as f64);
    let mean_density = 1.0; // np³ particles in an np³ box

    let mut table = Table::new(&[
        "Step",
        "Cells",
        "DeltaMin",
        "DeltaMax",
        "Skewness",
        "Kurtosis",
        "PaperSkew",
        "PaperKurt",
    ]);
    let paper = [(11usize, 1.6, 4.1), (21, 2.0, 5.5), (31, 4.5, 23.0)];
    for &(step, pskew, pkurt) in &paper {
        let particles = evolved_particles(np, step);
        let (block, _) = tessellate_serial(&particles, domain, [false; 3], &TessParams::default());
        let blocks = vec![block];
        let field = density_contrast(&blocks, mean_density);
        let deltas = field.contrasts();
        let h = Histogram::auto_range(&deltas, 100);
        let lo = deltas.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        table.row(&[
            step.to_string(),
            deltas.len().to_string(),
            format!("{lo:.2}"),
            format!("{hi:.2}"),
            format!("{:.2}", h.skewness()),
            format!("{:.1}", h.kurtosis()),
            format!("{pskew}"),
            format!("{pkurt}"),
        ]);

        let svg = output_dir().join(format!("fig11_step{step}.svg"));
        let slab = RenderOptions {
            zmin: 0.25 * np as f64,
            zmax: 0.5 * np as f64,
            ..RenderOptions::default()
        };
        render_to_file(&blocks, &slab, &svg).expect("render");
        let csv: String = h.rows().iter().map(|(c, n)| format!("{c},{n}\n")).collect();
        std::fs::write(
            output_dir().join(format!("fig11_delta_hist_step{step}.csv")),
            csv,
        )
        .expect("csv");
    }
    table.print();
    println!("# expectation: range of δ expands; skewness and kurtosis increase with time");
}
