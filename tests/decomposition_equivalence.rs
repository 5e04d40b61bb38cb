//! Decomposition-scheme equivalence: the merged Voronoi mesh must be
//! bit-identical whether the domain was cut into a regular grid or a
//! particle-balanced k-d tree.
//!
//! Why this can hold at all: certified cells are clipped from a
//! site-centered cube whose half-extent the driver derives from the global
//! *domain* (never from a block), in canonical candidate order, so a cell's
//! floating-point history is a function of the particle set alone. Block shape only decides *which rank* computes a cell and which
//! particles arrive as ghosts — and the ghost exchange's proximity links
//! guarantee every particle inside a certified cell's security ball is
//! present under either scheme. The one precondition is that every cell
//! certifies (`incomplete == 0`): dropped cells are decided by the
//! block-relative region, which *is* scheme-dependent.
//!
//! Matrix: {1, 2, 4, 8} ranks × {explicit, adaptive} ghosts, all compared
//! against one regular-grid reference.

use std::collections::BTreeMap;

use bench_harness::corpus::ClusterSpec;
use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, BalanceStats, DecompScheme, Decomposition};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, GhostSpec, TessParams};

/// Bit-level fingerprint of one cell: volume and area as raw f64 bits plus
/// the face-neighbor ids in face order.
type CellBits = (u64, u64, Vec<u64>);

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

/// The assignment each scheme is meant to run under: block-cyclic for the
/// regular grid, particle-count-weighted for k-d.
fn assignment_for(
    scheme: DecompScheme,
    dec: &Decomposition,
    particles: &[(u64, Vec3)],
    nranks: usize,
) -> Assignment {
    match scheme {
        DecompScheme::Regular => Assignment::new(dec.nblocks(), nranks),
        DecompScheme::Kd { .. } => {
            let mut counts = vec![0u64; dec.nblocks()];
            for &(_, p) in particles {
                counts[dec.block_of_point(p) as usize] += 1;
            }
            Assignment::weighted(&counts, nranks)
        }
    }
}

/// Tessellate the corpus under `scheme` on `nranks` ranks; merge cells
/// keyed by site id. Asserts every cell certified — the precondition for
/// cross-scheme comparability.
fn mesh_bits(
    particles: &[(u64, Vec3)],
    side: f64,
    scheme: DecompScheme,
    nranks: usize,
    params: &TessParams,
    label: &str,
) -> BTreeMap<u64, CellBits> {
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = scheme.build(Aabb::cube(side), 8, [true; 3], &positions);
    let collected = Runtime::run(nranks, move |world| {
        let asn = assignment_for(scheme, &dec, particles, world.nranks());
        let local = partition(particles, &dec, &asn, world.rank());
        let r = tess::tessellate(world, &dec, &asn, &local, params);
        let stats = tess::driver::global_stats(world, r.stats);
        assert_eq!(
            stats.incomplete, 0,
            "{label}: {} uncertified cells — corpus too sparse for the \
             adaptive cap; scheme equivalence only holds when no cell is \
             dropped",
            stats.incomplete
        );
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
    let mut mesh = BTreeMap::new();
    for (id, bits) in collected.into_iter().flatten() {
        assert!(
            mesh.insert(id, bits).is_none(),
            "{label}: cell {id} published twice"
        );
    }
    mesh
}

/// Equality with a first-difference report a human can act on.
fn assert_same_mesh(
    reference: &BTreeMap<u64, CellBits>,
    got: &BTreeMap<u64, CellBits>,
    label: &str,
) {
    if reference == got {
        return;
    }
    for (id, r) in reference {
        match got.get(id) {
            None => panic!("{label}: cell {id} missing (reference has it)"),
            Some(g) if g != r => panic!(
                "{label}: first differing cell {id}\n  reference: vol {} area {} nbrs {:?}\n  \
                 got:       vol {} area {} nbrs {:?}",
                f64::from_bits(r.0),
                f64::from_bits(r.1),
                r.2,
                f64::from_bits(g.0),
                f64::from_bits(g.1),
                g.2
            ),
            Some(_) => {}
        }
    }
    let extra: Vec<u64> = got
        .keys()
        .filter(|id| !reference.contains_key(id))
        .copied()
        .collect();
    panic!("{label}: extra cells not in reference: {extra:?}");
}

const KD: DecompScheme = DecompScheme::Kd {
    sample: DecompScheme::DEFAULT_KD_SAMPLE,
};

/// One corpus shared by the whole matrix: corner-heavy clustering, dense
/// enough that every void cell certifies under both schemes' caps.
fn corpus() -> (Vec<(u64, Vec3)>, f64) {
    let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 42);
    (spec.generate(), spec.side)
}

/// The largest explicit radius that is still within both schemes' 1-ring
/// reach (the proximity-link guarantee the exchange relies on).
fn explicit_radius(particles: &[(u64, Vec3)], side: f64) -> f64 {
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let reg = DecompScheme::Regular.build(Aabb::cube(side), 8, [true; 3], &positions);
    let kd = KD.build(Aabb::cube(side), 8, [true; 3], &positions);
    0.99 * reg.min_block_extent().min(kd.min_block_extent())
}

#[test]
fn kd_matches_regular_across_ranks_kernels_and_ghost_modes() {
    let (particles, side) = corpus();
    let explicit = explicit_radius(&particles, side);
    for (ghost_name, ghost) in [
        ("explicit", GhostSpec::Explicit(explicit)),
        (
            "adaptive",
            GhostSpec::Adaptive {
                initial_factor: 0.5,
                max_rounds: 8,
            },
        ),
    ] {
        let params = TessParams {
            ghost,
            ..TessParams::default()
        };
        let reference = mesh_bits(
            &particles,
            side,
            DecompScheme::Regular,
            1,
            &params,
            "regular@1",
        );
        assert!(!reference.is_empty());
        for nranks in [1usize, 2, 4, 8] {
            let label = format!("kd@{nranks} {ghost_name}");
            let kd = mesh_bits(&particles, side, KD, nranks, &params, &label);
            assert_same_mesh(&reference, &kd, &label);
        }
        let label = format!("regular@8 {ghost_name}");
        let reg8 = mesh_bits(&particles, side, DecompScheme::Regular, 8, &params, &label);
        assert_same_mesh(&reference, &reg8, &label);
    }
}

/// The corpus is adversarial for the regular grid — one octant holds most
/// of the mass — and the k-d cut with its weighted assignment evens it out.
/// Particle counts are deterministic, so this needs no tessellation.
#[test]
fn kd_balances_the_corpus_the_regular_grid_cannot() {
    let (particles, side) = corpus();
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let imbalance = |scheme: DecompScheme| {
        let dec = scheme.build(Aabb::cube(side), 8, [true; 3], &positions);
        let asn = assignment_for(scheme, &dec, &particles, 8);
        BalanceStats::measure(&dec, &asn, &positions).rank_imbalance()
    };
    let regular = imbalance(DecompScheme::Regular);
    let kd = imbalance(KD);
    assert!(
        regular >= 3.0,
        "corpus is not adversarial enough: regular imbalance {regular:.2} (need >= 3)"
    );
    assert!(kd <= 1.25, "k-d left imbalance {kd:.2} (need <= 1.25)");
}

/// The weighted assignment is part of the scheme A/B, but must never leak
/// into the mesh: rerun kd under the *unweighted* block-cyclic assignment
/// and demand the same bits.
#[test]
fn assignment_choice_cannot_change_the_mesh() {
    let (particles, side) = corpus();
    let params = TessParams {
        ghost: GhostSpec::Adaptive {
            initial_factor: 0.5,
            max_rounds: 8,
        },
        ..TessParams::default()
    };
    let weighted = mesh_bits(&particles, side, KD, 4, &params, "kd weighted");
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = KD.build(Aabb::cube(side), 8, [true; 3], &positions);
    let particles_ref = &particles;
    let collected = Runtime::run(4, move |world| {
        let asn = Assignment::new(dec.nblocks(), world.nranks());
        let local = partition(particles_ref, &dec, &asn, world.rank());
        let r = tess::tessellate(world, &dec, &asn, &local, &params);
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
    let unweighted: BTreeMap<u64, CellBits> = collected.into_iter().flatten().collect();
    assert_same_mesh(&weighted, &unweighted, "kd unweighted assignment");
}
