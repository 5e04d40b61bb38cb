//! Figure 9 — progressive volume thresholding reveals voids.
//!
//! Paper setup: the 32³ test box; culling cells below minimum-volume
//! thresholds of 0.0, 0.5, 0.75, and 1.0 (Mpc/h)³ reveals a small number
//! (≈7–10) of distinct connected components — the voids.
//!
//! Expected shape: at 0 the tessellation is one connected blob; as the
//! threshold rises the surviving large cells split into a handful of
//! distinct components whose count first rises then falls as voids vanish.

use bench_harness::{evolved_particles, output_dir, Table};
use geometry::Aabb;
use postprocess::render::{render_to_file, RenderOptions};
use postprocess::{label_components_serial, minkowski_functionals};
use std::collections::HashSet;
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
    println!("# Figure 9: threshold → connected components ({np}^3, t = {nsteps})");

    let particles = evolved_particles(np, nsteps);
    let domain = Aabb::cube(np as f64);
    let (block, _) = tessellate_serial(&particles, domain, [false; 3], &TessParams::default());
    let blocks = vec![block];

    let mut table = Table::new(&[
        "MinVolume",
        "CellsKept",
        "Components",
        "Components>=2cells",
        "LargestCells",
        "LargestVolume",
        "LargestGenus",
    ]);
    for threshold in [0.0, 0.5, 0.75, 1.0] {
        let comps = label_components_serial(&blocks, threshold);
        let kept: u64 = comps.summaries.values().map(|s| s.cells).sum();
        let multi = comps.summaries.values().filter(|s| s.cells >= 2).count();
        let (largest_cells, largest_vol, genus) = comps
            .by_volume()
            .first()
            .map(|(label, s)| {
                let sites: HashSet<u64> = comps
                    .labels
                    .iter()
                    .filter(|(_, &l)| l == *label)
                    .map(|(&s, _)| s)
                    .collect();
                let m = minkowski_functionals(&blocks, &sites, &domain);
                (s.cells, s.volume, m.genus)
            })
            .unwrap_or((0, 0.0, 0.0));
        table.row(&[
            format!("{threshold:.2}"),
            kept.to_string(),
            comps.num_components().to_string(),
            multi.to_string(),
            largest_cells.to_string(),
            format!("{largest_vol:.1}"),
            format!("{genus:.1}"),
        ]);

        let svg = output_dir().join(format!("fig9_threshold_{threshold:.2}.svg"));
        render_to_file(
            &blocks,
            &RenderOptions {
                vmin: threshold,
                zmin: 0.25 * np as f64,
                zmax: 0.5 * np as f64,
                ..RenderOptions::default()
            },
            &svg,
        )
        .expect("render");
        println!("# threshold {threshold:.2}: wrote {}", svg.display());
    }
    table.print();
    println!("# paper: thresholds 0.5–1.0 reveal ~7-10 distinct voids");
}
