//! Table I — parallel accuracy vs ghost-zone size.
//!
//! Paper setup: 64³ particles, 100 HACC steps; parallel tessellation with
//! 2/4/8 blocks and ghost sizes 0–4 (Mpc/h), compared against a serial
//! single-block reference; the table reports the % of cells matching the
//! serial version. Scaled default here: 32³ particles (override with
//! BENCH_NP / BENCH_STEPS).
//!
//! Expected shape (paper): accuracy drops as blocks grow at small ghost
//! (more block boundary → more wrong cells), and climbs to 100% once the
//! ghost is large enough (4 units at 1 Mpc/h spacing).

use std::collections::BTreeMap;

use bench_harness::{evolved_particles, partition_particles, Table};
use diy::comm::Runtime;
use diy::decomposition::{Assignment, Decomposition};
use geometry::Aabb;
use tess::{tessellate, tessellate_serial, TessParams};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let np = env_usize("BENCH_NP", 32);
    let nsteps = env_usize("BENCH_STEPS", 100);
    println!("# Table I: parallel accuracy ({np}^3 particles, {nsteps} steps)");

    let particles = evolved_particles(np, nsteps);
    let domain = Aabb::cube(np as f64);

    // Serial reference: one block, periodic mirroring, generous ghost.
    let reference_ghost = (np as f64 / 2.0).min(8.0);
    let (serial_block, serial_stats) = tessellate_serial(
        &particles,
        domain,
        [false; 3],
        &TessParams::default().with_ghost(reference_ghost),
    );
    let serial_vols: BTreeMap<u64, f64> = serial_block
        .cells
        .iter()
        .map(|c| (serial_block.site_id_of(c), c.volume))
        .collect();
    println!(
        "# serial reference: {} cells ({} incomplete dropped), ghost {reference_ghost}",
        serial_stats.cells, serial_stats.incomplete
    );

    let mut table = Table::new(&[
        "GhostSize",
        "CellsInSerial",
        "Blocks",
        "MatchingCells",
        "%Accuracy",
    ]);
    for ghost in [0.0, 1.0, 2.0, 3.0, 4.0] {
        for nblocks in [2usize, 4, 8] {
            let dec = Decomposition::regular(domain, nblocks, [false; 3]);
            let nranks = nblocks.min(2);
            let particles_ref = &particles;
            let serial_ref = &serial_vols;
            let dec_ref = &dec;
            let matching: u64 = Runtime::run(nranks, move |world| {
                let asn = Assignment::new(nblocks, world.nranks());
                let local = partition_particles(particles_ref, dec_ref, &asn, world.rank());
                // keep incomplete cells: the paper's parallel version
                // *computes* wrong boundary cells at small ghost rather
                // than dropping them, and the mismatch shows up here
                let params = TessParams {
                    keep_incomplete: true,
                    ..TessParams::default().with_ghost(ghost)
                };
                let r = tessellate(world, dec_ref, &asn, &local, &params);
                let my_matches: u64 = r
                    .blocks
                    .values()
                    .flat_map(|b| b.cells.iter().map(|c| (b.site_id_of(c), c.volume)))
                    .filter(|(id, vol)| {
                        serial_ref
                            .get(id)
                            .is_some_and(|sv| (vol - sv).abs() <= 1e-6 * sv.max(1e-6))
                    })
                    .count() as u64;
                world.all_reduce(my_matches, |a, b| a + b)
            })[0];
            let pct = 100.0 * matching as f64 / serial_vols.len() as f64;
            table.row(&[
                format!("{ghost:.0}"),
                serial_vols.len().to_string(),
                nblocks.to_string(),
                matching.to_string(),
                format!("{pct:.2}"),
            ]);
        }
    }
    table.print();
}
