//! Quickstart: tessellate a small point set, inspect cells, save and load.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::collections::BTreeMap;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, TessParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. Some points in a periodic 10³ box.
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let particles: Vec<(u64, Vec3)> = (0..500)
        .map(|id| {
            (
                id,
                Vec3::new(
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ),
            )
        })
        .collect();
    let domain = Aabb::cube(10.0);

    // 2. Standalone (serial) tessellation with an automatic ghost size.
    let (block, stats) =
        tess::tessellate_serial(&particles, domain, [true; 3], &TessParams::default());
    println!(
        "tessellated {} cells ({} could not be certified)",
        stats.cells, stats.incomplete
    );

    // 3. Inspect: volumes partition the box; faces know their neighbors.
    let total: f64 = block.cells.iter().map(|c| c.volume).sum();
    println!(
        "total cell volume {total:.3} (box volume {})",
        domain.volume()
    );
    let c0 = block.cells.cell(0);
    println!(
        "cell of particle {} has volume {:.3}, area {:.3}, {} faces, neighbors: {:?}",
        block.site_id_of(c0),
        c0.volume,
        c0.area,
        c0.faces.len(),
        c0.faces.iter().map(|f| f.neighbor).collect::<Vec<_>>()
    );

    // 4. Write the mesh to a single file and read it back — works the same
    // in parallel (see the in-situ example).
    let path = std::env::temp_dir().join("quickstart.tess");
    let block_for_write = block.clone();
    Runtime::run(1, move |world| {
        let blocks: BTreeMap<u64, tess::MeshBlock> =
            [(0u64, block_for_write.clone())].into_iter().collect();
        tess::io::write_tessellation(world, &path, &blocks).expect("write");
    });
    let back = tess::io::read_tessellation(&std::env::temp_dir().join("quickstart.tess")).unwrap();
    println!(
        "read back {} blocks, {} cells",
        back.len(),
        back[0].cells.len()
    );
    assert_eq!(back[0], block);
    println!("ok");
}
