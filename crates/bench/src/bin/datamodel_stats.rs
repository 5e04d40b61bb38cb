//! §III-C2 — data-model size accounting.
//!
//! Paper numbers (HACC simulations): ~15 faces/cell, ~5 vertices/face,
//! ~35 total vertex references/cell, ~7 new deduplicated vertices per
//! cell; full tessellation ≈ 450 bytes/particle, culled ≈ 100
//! bytes/particle (vs a 40 byte/particle HACC checkpoint); ~7% of bytes
//! are floating-point geometry, ~93% connectivity.

use std::collections::BTreeMap;

use bench_harness::{evolved_particles, Table};
use diy::comm::Runtime;
use geometry::Aabb;
use tess::{tessellate_serial, TessParams};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Real serialized sizes: write the block through the collective mesh
/// writer and read the index back — payload from the file's block records,
/// total including header/footer/trailer framing from the file length.
fn disk_bytes(label: &str, block: &tess::MeshBlock) -> (u64, u64) {
    let path = bench_harness::output_dir().join(format!("datamodel_{label}.tess"));
    let blocks: BTreeMap<u64, tess::MeshBlock> = [(block.gid, block.clone())].into_iter().collect();
    let blocks_ref = &blocks;
    let path_ref = &path;
    let file_bytes = Runtime::run(1, |w| {
        tess::io::write_tessellation(w, path_ref, blocks_ref).expect("mesh write")
    })[0];
    let payload: u64 = diy::io::read_index(&path)
        .expect("mesh index")
        .iter()
        .map(|r| r.len)
        .sum();
    (payload, file_bytes)
}

fn report(label: &str, block: &tess::MeshBlock, nparticles: usize, table: &mut Table) {
    let cells = block.cells.len().max(1);
    let faces: usize = block.num_faces();
    let vert_refs: usize = block
        .cells
        .iter()
        .flat_map(|c| c.faces.iter())
        .map(|f| f.verts.len())
        .sum();
    let (payload, file_bytes) = disk_bytes(label, block);
    let (geom, conn) = block.size_breakdown();
    table.row(&[
        label.to_string(),
        block.cells.len().to_string(),
        format!("{:.1}", faces as f64 / cells as f64),
        format!("{:.1}", vert_refs as f64 / faces.max(1) as f64),
        format!("{:.1}", vert_refs as f64 / cells as f64),
        format!("{:.1}", block.verts.len() as f64 / cells as f64),
        format!("{:.0}", payload as f64 / nparticles as f64),
        format!("{:.0}", file_bytes as f64 / nparticles as f64),
        format!("{:.1}", 100.0 * geom as f64 / (geom + conn) as f64),
        format!("{:.1}", 100.0 * conn as f64 / (geom + conn) as f64),
    ]);
}

fn main() {
    let np = env_usize("BENCH_NP", 32);
    let nsteps = env_usize("BENCH_STEPS", 100);
    println!("# Data model stats ({np}^3 particles, t = {nsteps}); paper: ~15 faces/cell, ~5 verts/face, ~450 B/particle full, ~100 culled, 7%/93% geometry/connectivity");

    let particles = evolved_particles(np, nsteps);
    let domain = Aabb::cube(np as f64);
    let nparticles = particles.len();

    let mut table = Table::new(&[
        "Output",
        "Cells",
        "Faces/cell",
        "Verts/face",
        "VertRefs/cell",
        "NewVerts/cell",
        "Bytes/particle",
        "FileB/particle",
        "Geom%",
        "Conn%",
    ]);

    let (full, _) = tessellate_serial(&particles, domain, [false; 3], &TessParams::default());
    report("full", &full, nparticles, &mut table);

    // the paper's usual mode: cull the smallest 10% of the volume range
    let vmax = full.cells.iter().map(|c| c.volume).fold(0.0, f64::max);
    let vmin = full
        .cells
        .iter()
        .map(|c| c.volume)
        .fold(f64::INFINITY, f64::min);
    let threshold = vmin + 0.1 * (vmax - vmin);
    let (culled, _) = tessellate_serial(
        &particles,
        domain,
        [false; 3],
        &TessParams::default().with_min_volume(threshold),
    );
    report("culled10%", &culled, nparticles, &mut table);
    table.print();
    println!("# HACC checkpoint baseline: 40 bytes/particle (positions+velocities+id)");
}
