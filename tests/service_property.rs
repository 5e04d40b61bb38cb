//! Property-based differential suite for the service's point lookup:
//! random batched lookups against a brute-force nearest-seed oracle, on
//! periodic *and* non-periodic boxes, with query families that pin the
//! hard cases — points exactly on lattice planes (cell faces when the
//! lattice is unjittered, so the distance ties exactly in f64), points on
//! the periodic seam, points outside the domain, and points exactly on a
//! seed. The canonical tie-break (smallest site id at equal exact
//! distance) is part of the oracle, so any non-canonical resolution is a
//! failure, not a flake.

use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{
    Answer, GhostSpec, MeshService, MeshSnapshot, PointHit, Query, ServiceConfig, TessParams,
};
use proptest::prelude::*;

const N: usize = 3;
const BOX: f64 = N as f64;

fn lattice(seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..N * N * N)
        .map(|idx| {
            let (i, j, k) = (idx % N, (idx / N) % N, idx / (N * N));
            let mut p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5);
            if amp > 0.0 {
                p += Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
                p = Vec3::new(
                    p.x.rem_euclid(BOX),
                    p.y.rem_euclid(BOX),
                    p.z.rem_euclid(BOX),
                );
            }
            (idx as u64, p)
        })
        .collect()
}

/// Brute-force argmin of exact f64 distance over every cell seed × every
/// periodic image, ties to the smallest site id.
fn oracle_point(snap: &MeshSnapshot, p: Vec3) -> Option<(u64, u64, u64)> {
    let q = snap.wrap_query(p);
    let ext = snap.dec.domain.extent();
    let offs = |a: usize| -> &'static [i32] {
        if snap.dec.periodic[a] {
            &[-1, 0, 1]
        } else {
            &[0]
        }
    };
    let mut best: Option<(f64, u64, u64)> = None; // (d2, site, vol bits)
    for b in snap.blocks.values() {
        for cell in &b.cells {
            let site = b.site_of(cell);
            let id = b.site_id_of(cell);
            for &kx in offs(0) {
                for &ky in offs(1) {
                    for &kz in offs(2) {
                        let img = site
                            + Vec3::new(kx as f64 * ext.x, ky as f64 * ext.y, kz as f64 * ext.z);
                        let d2 = img.dist2(q);
                        let better = match &best {
                            None => true,
                            Some((bd2, bid, _)) => match d2.total_cmp(bd2) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Equal => id < *bid,
                                std::cmp::Ordering::Greater => false,
                            },
                        };
                        if better {
                            best = Some((d2, id, cell.volume.to_bits()));
                        }
                    }
                }
            }
        }
    }
    best.map(|(d2, id, vol)| (id, d2.to_bits(), vol))
}

/// Map one raw tuple to a query point from a family chosen by `kind`.
fn query_from(raw: (f64, f64, f64, u8), particles: &[(u64, Vec3)]) -> Vec3 {
    let (x, y, z, kind) = raw;
    let p = Vec3::new(x * BOX, y * BOX, z * BOX);
    match kind % 8 {
        // exactly on a lattice plane (a cell-face plane on the unjittered
        // lattice, so the two flanking sites tie in exact f64)
        0 => Vec3::new((x * BOX).round().clamp(0.0, BOX), p.y, p.z),
        // on the periodic seam / outer boundary faces
        1 => Vec3::new(0.0, p.y, p.z),
        2 => Vec3::new(p.x, BOX, p.z),
        // outside the domain on two axes (wraps when periodic, clamps
        // into the grid otherwise)
        3 => Vec3::new(p.x + BOX, p.y, p.z - BOX),
        // exactly on a seed: distance must come back exactly 0.0
        4 => {
            let idx = ((x * 1e6) as usize + (y * 1e6) as usize) % particles.len();
            particles[idx].1
        }
        // the domain corner (8-way periodic tie on the exact lattice)
        5 => Vec3::new(0.0, 0.0, 0.0),
        // plain interior points
        _ => p,
    }
}

fn check_case(seed: u64, periodic: bool, exact: bool, raw: &[(f64, f64, f64, u8)]) {
    let amp = if exact { 0.0 } else { 0.25 };
    let particles = lattice(seed, amp);
    let svc = MeshService::spawn(
        Aabb::cube(BOX),
        [periodic; 3],
        &particles,
        ServiceConfig::new(2, 8).with_params(TessParams {
            ghost: GhostSpec::Auto { factor: 2.5 },
            ..TessParams::default()
        }),
    );
    let snap = svc.snapshot();
    let queries: Vec<Vec3> = raw.iter().map(|&r| query_from(r, &particles)).collect();
    // one batched wave — the grouped kernel path, not one-at-a-time
    let pending: Vec<_> = queries
        .iter()
        .map(|&p| svc.submit(Query::Point(p)).expect("open"))
        .collect();
    for (p, pend) in queries.iter().zip(pending) {
        let r = pend.wait();
        let Answer::Point(got) = r.answer else {
            panic!("non-point answer")
        };
        let want = oracle_point(&snap, *p);
        let got_key: Option<(u64, u64, u64)> =
            got.map(|h: PointHit| (h.site_id, h.dist2.to_bits(), h.volume.to_bits()));
        assert_eq!(
            got_key, want,
            "periodic={periodic} exact={exact} seed={seed} query={p:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Batched lookups on a periodic box match brute force bit-for-bit.
    #[test]
    fn periodic_batches_match_brute_force(
        seed in 0u64..1_000_000,
        exact in 0u8..2,
        raw in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u8..8), 12..20),
    ) {
        check_case(seed, true, exact == 1, &raw);
    }

    /// Same property on a non-periodic box: no images, queries outside
    /// the domain stay outside instead of wrapping.
    #[test]
    fn nonperiodic_batches_match_brute_force(
        seed in 0u64..1_000_000,
        exact in 0u8..2,
        raw in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u8..8), 12..20),
    ) {
        check_case(seed, false, exact == 1, &raw);
    }
}

/// The canonical tie-break is pinned, not emergent: on the exact lattice
/// a face-plane query between two surviving cells must tie at d² = 0.25
/// exactly and resolve to the smaller site id, on periodic *and*
/// non-periodic boxes. (Non-periodic boundary cells are culled — they
/// cannot be certified — so its pinned tie uses two interior sites of a
/// 4³ lattice.)
#[test]
fn canonical_tie_break_is_pinned() {
    // Periodic 3³ box: boundary ties and the seam tie both exist.
    let svc = MeshService::spawn(
        Aabb::cube(BOX),
        [true; 3],
        &lattice(0, 0.0),
        ServiceConfig::new(1, 8).with_params(TessParams {
            ghost: GhostSpec::Auto { factor: 2.5 },
            ..TessParams::default()
        }),
    );
    // face plane between sites 0 and 1, and the seam tie between site 0
    // and the periodic image of site 2 (at x = -0.5)
    for q in [Vec3::new(1.0, 0.5, 0.5), Vec3::new(0.0, 0.5, 0.5)] {
        let r = svc.query(Query::Point(q)).expect("open");
        let Answer::Point(Some(hit)) = r.answer else {
            panic!("no hit at {q:?}")
        };
        assert_eq!(hit.site_id, 0, "tie at {q:?} must go to site 0");
        assert_eq!(hit.dist2.to_bits(), 0.25f64.to_bits());
    }
    drop(svc);

    // Non-periodic 4³ box: tie two interior sites across the x = 2 plane
    // — ids 21 = (1,1,1) and 22 = (2,1,1); the smaller must win.
    let n = 4usize;
    let particles: Vec<(u64, Vec3)> = (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            (
                idx as u64,
                Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
            )
        })
        .collect();
    let svc = MeshService::spawn(
        Aabb::cube(n as f64),
        [false; 3],
        &particles,
        ServiceConfig::new(1, 8).with_params(TessParams {
            ghost: GhostSpec::Auto { factor: 2.5 },
            ..TessParams::default()
        }),
    );
    let q = Vec3::new(2.0, 1.5, 1.5);
    let r = svc.query(Query::Point(q)).expect("open");
    let Answer::Point(Some(hit)) = r.answer else {
        panic!("no hit at {q:?}")
    };
    assert_eq!(hit.site_id, 21, "interior tie must go to the smaller id");
    assert_eq!(hit.dist2.to_bits(), 0.25f64.to_bits());
    // the oracle agrees, so the pin and the differential suite are one
    let want = oracle_point(&svc.snapshot(), q).unwrap();
    assert_eq!(want.0, 21);
}
