//! Determinism of the threaded, incremental tessellation path.
//!
//! The intra-block kernel fans cells out over a work-stealing pool and the
//! adaptive driver resumes sessions instead of recomputing whole blocks,
//! but neither is allowed to change a single bit of the merged mesh:
//!
//! * **Thread invariance** — the merged mesh is bit-identical whether the
//!   pool runs 1, 2, or 8 ways (chunks are collected in index order).
//! * **Rank invariance** — incremental re-tessellation (recompute only
//!   uncertified cells each adaptive round) gives the 1-rank mesh bit for
//!   bit at 2, 4, and 8 ranks, for explicit and adaptive ghost modes; the
//!   brute-force oracle in `kernel_equivalence` pins those bits.
//! * **Metrics invariants survive the pool** — per-tag transport
//!   conservation and span tiling still hold when pool workers burn CPU on
//!   behalf of a rank (their time is credited to the enclosing span).
//!
//! Pool width is process-global state, so every test serializes through
//! one mutex and restores the previous width on exit.

use std::collections::BTreeMap;
use std::sync::Mutex;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::diy::metrics::collect_report;
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::rayon::set_max_parallelism;
use meshing_universe::tess::{
    self, GhostSpec, TessParams, PHASE_GHOST_EXCHANGE, PHASE_OUTPUT, PHASE_VORONOI,
};

/// Serializes tests that reconfigure the global pool width.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// Run `f` with the pool capped at `width`, restoring the previous cap.
fn with_pool_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = POOL_WIDTH.lock().unwrap();
    let prev = set_max_parallelism(width);
    let out = f();
    set_max_parallelism(prev);
    out
}

fn jittered(n: usize, seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            let p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5)
                + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
            let ng = n as f64;
            (
                idx as u64,
                Vec3::new(p.x.rem_euclid(ng), p.y.rem_euclid(ng), p.z.rem_euclid(ng)),
            )
        })
        .collect()
}

fn partition(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    asn: &Assignment,
    rank: usize,
) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
    let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
        asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
    for &(id, p) in particles {
        let gid = dec.block_of_point(p);
        if let Some(v) = local.get_mut(&gid) {
            v.push((id, p));
        }
    }
    local
}

/// Bit-level fingerprint of one cell: volume and area as raw f64 bits plus
/// the face-neighbor ids in face order.
type CellBits = (u64, u64, Vec<u64>);

/// Tessellate on `nranks` ranks and merge every cell keyed by site id.
fn mesh_bits(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    nranks: usize,
    params: &TessParams,
) -> BTreeMap<u64, CellBits> {
    let collected = Runtime::run(nranks, move |world| {
        let asn = Assignment::new(dec.nblocks(), world.nranks());
        let local = partition(particles, dec, &asn, world.rank());
        let r = tess::tessellate(world, dec, &asn, &local, params);
        r.blocks
            .values()
            .flat_map(|b| {
                b.cells
                    .iter()
                    .map(|c| {
                        (
                            b.site_id_of(c),
                            (
                                c.volume.to_bits(),
                                c.area.to_bits(),
                                c.faces.iter().map(|f| f.neighbor).collect::<Vec<u64>>(),
                            ),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let mut merged = BTreeMap::new();
    for (id, bits) in collected.into_iter().flatten() {
        let prev = merged.insert(id, bits);
        assert!(prev.is_none(), "cell {id} produced by two blocks");
    }
    merged
}

fn ghost_modes() -> [(&'static str, GhostSpec); 2] {
    [
        ("explicit", GhostSpec::Explicit(2.5)),
        ("adaptive", GhostSpec::adaptive()),
    ]
}

#[test]
fn merged_mesh_is_bit_identical_across_pool_widths() {
    let n = 6;
    let particles = jittered(n, 17, 0.45);
    let dec = Decomposition::regular(Aabb::cube(n as f64), 8, [true; 3]);
    for (label, ghost) in ghost_modes() {
        let params = TessParams {
            ghost,
            ..TessParams::default()
        };
        let reference = with_pool_width(1, || mesh_bits(&particles, &dec, 2, &params));
        assert_eq!(reference.len(), n * n * n, "{label}: all cells certified");
        for width in [2usize, 8] {
            let mesh = with_pool_width(width, || mesh_bits(&particles, &dec, 2, &params));
            assert_eq!(
                mesh, reference,
                "{label}: pool width {width} changed the mesh"
            );
        }
    }
}

#[test]
fn incremental_retess_matches_full_recompute_at_every_rank_count() {
    let n = 6;
    let particles = jittered(n, 23, 0.48);
    let dec = Decomposition::regular(Aabb::cube(n as f64), 8, [true; 3]);
    // width 2 so the pool is actually in the loop while ranks are compared
    with_pool_width(2, || {
        for (label, ghost) in ghost_modes() {
            let params = TessParams {
                ghost,
                ..TessParams::default()
            };
            let reference = mesh_bits(&particles, &dec, 1, &params);
            assert_eq!(reference.len(), n * n * n, "{label}: all cells certified");
            for nranks in [2usize, 4, 8] {
                let mesh = mesh_bits(&particles, &dec, nranks, &params);
                assert_eq!(
                    mesh, reference,
                    "{label}: mesh at {nranks} ranks differs from 1 rank"
                );
            }
        }
    });
}

#[test]
fn adaptive_rounds_after_the_first_recompute_only_uncertified_cells() {
    let n = 6;
    let particles = jittered(n, 23, 0.48);
    let dec = Decomposition::regular(Aabb::cube(n as f64), 8, [true; 3]);
    // a small initial radius forces several growth rounds
    let ghost = GhostSpec::Adaptive {
        initial_factor: 0.75,
        max_rounds: 8,
    };
    let stats = with_pool_width(2, || {
        Runtime::run(4, |world| {
            let asn = Assignment::new(8, world.nranks());
            let local = partition(&particles, &dec, &asn, world.rank());
            let params = TessParams {
                ghost,
                ..TessParams::default()
            };
            let r = tess::tessellate(world, &dec, &asn, &local, &params);
            tess::driver::global_stats(world, r.stats)
        })[0]
    });
    assert!(stats.ghost_rounds >= 2, "rounds {}", stats.ghost_rounds);
    assert_eq!(stats.cells, (n * n * n) as u64);
    // Round 1 computes every cell once; each later round touches only the
    // cells the previous round could not certify and reuses the rest.
    assert!(stats.cells_reused > 0, "no cells were reused");
    assert!(stats.cells_computed >= stats.cells);
}

#[test]
fn metrics_invariants_hold_with_the_pool_engaged() {
    let n = 6;
    let particles = jittered(n, 31, 0.45);
    let dec = Decomposition::regular(Aabb::cube(n as f64), 8, [true; 3]);
    let dir = std::env::temp_dir().join("mu-parallel-determinism");
    std::fs::create_dir_all(&dir).unwrap();

    with_pool_width(4, || {
        for nranks in [1usize, 2, 4] {
            let out = dir.join(format!("pool_r{nranks}.tess"));
            let particles = &particles;
            let dec = &dec;
            let out2 = out.clone();
            let reports = Runtime::run(nranks, move |world| {
                let asn = Assignment::new(8, world.nranks());
                let local = partition(particles, dec, &asn, world.rank());
                let params = TessParams {
                    ghost: GhostSpec::adaptive(),
                    ..TessParams::default()
                };
                {
                    let _span = world.metrics().phase("pipeline");
                    let r = tess::tessellate(world, dec, &asn, &local, &params);
                    tess::io::write_tessellation(world, &out2, &r.blocks).expect("write");
                }
                collect_report(world)
            });
            let report = &reports[0];
            assert!(
                report.is_conserved(),
                "nranks={nranks}: {:?}",
                report.conservation_violations()
            );

            // Span tiling: pool-worker CPU is credited to the enclosing
            // spans, so the voronoi span (and its pipeline parent) still
            // account for the work and children never exceed the parent.
            let parent = report.phase("pipeline").expect("pipeline span");
            let children: f64 = [PHASE_GHOST_EXCHANGE, PHASE_VORONOI, PHASE_OUTPUT]
                .iter()
                .map(|p| report.phase(p).map_or(0.0, |ph| ph.cpu_sum_s))
                .sum();
            assert!(
                children <= parent.cpu_sum_s * (1.0 + 1e-6) + 1e-6,
                "nranks={nranks}: children {children} > parent {}",
                parent.cpu_sum_s
            );
            let gap = parent.cpu_sum_s - children;
            assert!(
                gap <= 0.05 * parent.cpu_sum_s + 0.005,
                "nranks={nranks}: unattributed {gap}s of {}s pipeline time",
                parent.cpu_sum_s
            );
        }
    });
}
