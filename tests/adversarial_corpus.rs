//! Adversarial-distribution corpus for the full tessellation pipeline.
//!
//! Each distribution is chosen to stress a different failure surface of the
//! cell kernels and the ghost protocol: clustered halo-like sets (huge
//! density contrast, elongated void cells), coplanar and collinear lattices
//! (degenerate bisector geometry), exact duplicates (zero-length bisectors),
//! and periodic-seam-biased sets (wrap-around adjacency dominates). For
//! every distribution the pipeline must not panic, must produce only
//! non-negative finite cell volumes, and the serial and 4-rank runs (adaptive
//! ghost protocol) must agree bit for bit.

use std::collections::BTreeMap;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, GhostSpec, TessParams};

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

/// Bit-level fingerprint of one cell, plus its decoded volume for the
/// non-negativity check.
type CellBits = (u64, u64, Vec<u64>);

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

/// Run one distribution through serial and 4-rank adaptive configurations;
/// assert rank-count agreement and sane volumes everywhere.
fn exercise(label: &str, particles: &[(u64, Vec3)], dec: &Decomposition, keep_incomplete: bool) {
    let ghost = if keep_incomplete {
        // degenerate sets never certify; bound the rounds and keep what
        // the final round produced
        GhostSpec::Explicit(2.0)
    } else {
        GhostSpec::adaptive()
    };
    let params = TessParams {
        ghost,
        keep_incomplete,
        ..TessParams::default()
    };
    let mut reference: Option<BTreeMap<u64, CellBits>> = None;
    for nranks in [1usize, 4] {
        let mesh = mesh_bits(particles, dec, nranks, &params);
        for (id, (vol_bits, area_bits, _)) in &mesh {
            let (vol, area) = (f64::from_bits(*vol_bits), f64::from_bits(*area_bits));
            assert!(
                vol.is_finite() && vol >= 0.0,
                "{label}: cell {id} volume {vol}"
            );
            assert!(
                area.is_finite() && area >= 0.0,
                "{label}: cell {id} area {area}"
            );
        }
        match &reference {
            None => reference = Some(mesh),
            Some(r) => assert!(&mesh == r, "{label}: {nranks} ranks disagree with 1 rank"),
        }
    }
}

fn wrap(side: f64, p: Vec3) -> Vec3 {
    Vec3::new(
        p.x.rem_euclid(side),
        p.y.rem_euclid(side),
        p.z.rem_euclid(side),
    )
}

#[test]
fn clustered_halo_like_points() {
    // NFW-ish clumps — tight cores with a handful of far outliers each —
    // from the shared seeded generator the benches also use.
    let side = 8.0;
    let particles = bench_harness::corpus::ClusterSpec {
        side,
        nclumps: 16,
        per_clump: 20,
        sigma_frac: 0.15 / 8.0,
        outlier_every: 5,
        filament: 0,
        background: 0,
        cluster_frac: 1.0,
        seed: 71,
    }
    .generate();
    let dec = Decomposition::regular(Aabb::cube(side), 8, [true; 3]);
    exercise("clustered halos", &particles, &dec, false);
}

#[test]
fn coplanar_sheet_and_collinear_filament() {
    // All points on one z-plane: every bisector between sheet members is
    // vertical, cells are unbounded columns clipped only by the region —
    // never certifiable, so keep_incomplete publishes them.
    let side = 6.0;
    let mut pts = Vec::new();
    for j in 0..12 {
        for i in 0..12 {
            pts.push(Vec3::new(0.25 + i as f64 * 0.5, 0.25 + j as f64 * 0.5, 3.0));
        }
    }
    // plus a collinear filament along x at another height
    for i in 0..24 {
        pts.push(Vec3::new(0.125 + i as f64 * 0.25, 1.5, 1.0));
    }
    let particles: Vec<(u64, Vec3)> = pts
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    let dec = Decomposition::regular(Aabb::cube(side), 8, [false; 3]);
    exercise("coplanar+collinear", &particles, &dec, true);
}

#[test]
fn exact_duplicates_and_near_coincident_pairs() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(73);
    let side = 6.0;
    let mut pts = Vec::new();
    for _ in 0..100 {
        let p = Vec3::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        );
        pts.push(p);
        if rng.gen_range(0.0..1.0) < 0.3 {
            // exact duplicate: distinct id, bit-identical position
            pts.push(p);
        } else if rng.gen_range(0.0..1.0) < 0.3 {
            // near-coincident at the clipping tolerance scale
            pts.push(p + Vec3::new(1e-10, 0.0, -1e-10));
        }
    }
    let particles: Vec<(u64, Vec3)> = pts
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    let dec = Decomposition::regular(Aabb::cube(side), 8, [true; 3]);
    // duplicate sites can never certify against each other; keep what the
    // bounded protocol produces rather than looping forever
    exercise("exact duplicates", &particles, &dec, true);
}

#[test]
fn periodic_seam_biased_points() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(79);
    let side = 6.0;
    let mut pts = Vec::new();
    // 90% of points within 0.2 of a periodic face, many straddling the
    // wrap seam; every cell's natural neighbors live across the boundary
    for _ in 0..220 {
        let mut p = Vec3::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        );
        let axis = rng.gen_range(0..4);
        if axis < 3 {
            let near_min = rng.gen_range(0.0..1.0) < 0.5;
            let off = rng.gen_range(-0.2..0.2);
            p[axis] = if near_min { off } else { side + off };
        }
        pts.push(wrap(side, p));
    }
    let particles: Vec<(u64, Vec3)> = pts
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect();
    let dec = Decomposition::regular(Aabb::cube(side), 8, [true; 3]);
    exercise("periodic seam", &particles, &dec, false);
}
