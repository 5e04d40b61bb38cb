//! Allocation budget of the cell kernel as a hard gate.
//!
//! The `diy::mem` counting allocator is process-global, so this file holds
//! exactly one test: a second test running on another thread would count
//! into the same totals.

use meshing_universe::diy::mem;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::rayon::set_max_parallelism;
use meshing_universe::tess::block::tessellate_block;
use meshing_universe::tess::TessParams;

type Particles = Vec<(u64, Vec3)>;

/// A jittered `n³` lattice block with a `halo`-deep ring of ghosts around
/// it: own particles fill `[halo, halo + n)³`.
fn jittered_block(n: usize, halo: usize) -> (Aabb, Particles, Particles) {
    use meshing_universe::rand::{Rng, SeedableRng};
    let mut rng = meshing_universe::rand_chacha::ChaCha8Rng::seed_from_u64(16);
    let side = n + 2 * halo;
    let (lo, hi) = (halo as f64, (halo + n) as f64);
    let bounds = Aabb::new(Vec3::splat(lo), Vec3::splat(hi));
    let (mut own, mut ghosts) = (Vec::new(), Vec::new());
    for idx in 0..side * side * side {
        let (i, j, k) = (idx % side, (idx / side) % side, idx / (side * side));
        let p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5)
            + Vec3::new(
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            );
        if bounds.contains(p) {
            own.push((idx as u64, p));
        } else {
            ghosts.push((idx as u64, p));
        }
    }
    (bounds, own, ghosts)
}

#[test]
fn kernel_allocations_per_kept_cell_stay_within_budget() {
    // Pool width 1: the block's cells run on this thread, so its
    // thread-local kernel scratch is the one warmed below.
    set_max_parallelism(1);
    let halo = 3;
    let (bounds, own, ghosts) = jittered_block(16, halo);
    let params = TessParams::default().with_ghost(halo as f64);
    let run = || tessellate_block(0, bounds, &own, &ghosts, halo as f64, &params);

    // Warm-up: grows the thread's scratch buffers to their steady size.
    let _ = run();
    let before = mem::stats().alloc_count;
    let (block, stats) = run();
    let allocs = mem::stats().alloc_count - before;
    assert_eq!(stats.cells, 16 * 16 * 16, "every own cell certifies");
    let per_cell = allocs as f64 / block.cells.len() as f64;
    // Measured 0.0730 allocations per kept cell (299 for the block): each
    // of the pool's 64 chunks copies its records and its kept geometry out
    // at their exact size, plus the grid build, the vertex map and the
    // block's columns. No allocation is made per cell or per face. Budget:
    // measured + 10 %.
    assert!(
        per_cell <= 0.0730 * 1.1,
        "{allocs} allocations for {} kept cells: {per_cell:.2} per cell",
        block.cells.len()
    );
}
