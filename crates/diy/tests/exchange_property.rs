//! Property tests for targeted destination identification
//! ([`NeighborExchange::destinations_near`]): the returned links are
//! *exactly* the neighbor blocks whose ghost-extended bounds reach the
//! (periodically transformed) particle — and the shells of a growing
//! radius ([`NeighborExchange::destinations_in_shell`]) partition them.
//! Point generation is biased onto block faces, edges, and corners — the
//! cases where a particle must fan out to 1, 3, or 7 neighbors and where
//! an off-by-one in the periodic transform flips the answer.

use diy::decomposition::{Assignment, Decomposition};
use diy::exchange::NeighborExchange;
use geometry::{Aabb, Vec3};
use proptest::prelude::*;

/// Independent oracle: Euclidean distance from `q` to `b`, written as
/// clamp-then-norm rather than the per-axis-excess form the library uses.
fn dist_to_box(b: &Aabb, q: Vec3) -> f64 {
    let clamped = Vec3::new(
        q.x.clamp(b.min.x, b.max.x),
        q.y.clamp(b.min.y, b.max.y),
        q.z.clamp(b.min.z, b.max.z),
    );
    (q - clamped).norm()
}

/// Place a coordinate inside block bounds `[lo, hi]` according to `mode`:
/// exactly on a face (0, 1), a hair inside a face (2, 3), or in the
/// interior (anything else, using `t` as the interpolation factor).
fn place(lo: f64, hi: f64, mode: usize, t: f64) -> f64 {
    let eps = (hi - lo) * 1e-9;
    match mode {
        0 => lo,
        1 => hi,
        2 => lo + eps,
        3 => hi - eps,
        _ => lo + (hi - lo) * t,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `destinations_near` returns exactly the neighbor links whose
    /// (transform-adjusted) block bounds lie within `ghost` of the
    /// particle — face, edge, and corner placements included.
    #[test]
    fn destinations_match_ghost_extended_bounds(
        dims in (1usize..=4, 1usize..=4, 1usize..=4),
        periodic in (any::<bool>(), any::<bool>(), any::<bool>()),
        origin in -50.0f64..50.0,
        size in 1.0f64..32.0,
        gid_frac in 0.0f64..1.0,
        modes in (0usize..6, 0usize..6, 0usize..6),
        ts in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        ghost_frac in 0.0f64..0.8,
    ) {
        let domain = Aabb::new(Vec3::splat(origin), Vec3::splat(origin + size));
        let dims = [dims.0, dims.1, dims.2];
        let periodic = [periodic.0, periodic.1, periodic.2];
        let dec = Decomposition::with_dims(domain, dims, periodic);
        let nblocks = dec.nblocks();
        let asn = Assignment::new(nblocks, 1);
        let ex = NeighborExchange::new(&dec, &asn);

        let gid = ((gid_frac * nblocks as f64) as u64).min(nblocks as u64 - 1);
        let b = dec.block_bounds(gid);
        let p = Vec3::new(
            place(b.min.x, b.max.x, modes.0, ts.0),
            place(b.min.y, b.max.y, modes.1, ts.1),
            place(b.min.z, b.max.z, modes.2, ts.2),
        );
        // ghost spans from "touching only" to most of a block
        let block_edge = (size / dims[0] as f64)
            .min(size / dims[1] as f64)
            .min(size / dims[2] as f64);
        let ghost = ghost_frac * block_edge;

        let got = ex.destinations_near(gid, p, ghost);

        // exactness against the oracle, link by link: same multiset of
        // (gid, xform) pairs
        let all = dec.neighbors(gid);
        let expect: Vec<_> = all
            .iter()
            .filter(|n| dist_to_box(&dec.block_bounds(n.gid), p + n.xform) <= ghost)
            .collect();
        prop_assert_eq!(got.len(), expect.len(), "p={:?} ghost={}", p, ghost);
        for n in &got {
            prop_assert!(
                expect.iter().any(|m| m.gid == n.gid && m.xform == n.xform),
                "unexpected destination {:?}",
                n
            );
        }

        // a face/edge/corner placement with nonzero ghost must reach the
        // blocks sharing that face/edge/corner (when they exist as links):
        // every link whose transformed frame puts the point *on* the
        // neighbor's boundary is within any nonzero ghost
        for n in &all {
            if dist_to_box(&dec.block_bounds(n.gid), p + n.xform) == 0.0 {
                prop_assert!(
                    got.iter().any(|m| m.gid == n.gid && m.xform == n.xform),
                    "touching neighbor {:?} missing at ghost={}",
                    n,
                    ghost
                );
            }
        }
    }

    /// A ghost larger than the domain diagonal reaches every neighbor
    /// link; ghost 0 still reaches all links the particle touches (corner
    /// particles fan out to the full corner neighborhood).
    #[test]
    fn ghost_extremes(
        dims in (1usize..=3, 1usize..=3, 1usize..=3),
        periodic in (any::<bool>(), any::<bool>(), any::<bool>()),
        gid_frac in 0.0f64..1.0,
        corner in (0usize..2, 0usize..2, 0usize..2),
    ) {
        let size = 9.0;
        let domain = Aabb::cube(size);
        let dims = [dims.0, dims.1, dims.2];
        let periodic = [periodic.0, periodic.1, periodic.2];
        let dec = Decomposition::with_dims(domain, dims, periodic);
        let nblocks = dec.nblocks();
        let asn = Assignment::new(nblocks, 1);
        let ex = NeighborExchange::new(&dec, &asn);
        let gid = ((gid_frac * nblocks as f64) as u64).min(nblocks as u64 - 1);
        let b = dec.block_bounds(gid);

        // particle exactly on one of the block's corners
        let p = Vec3::new(
            if corner.0 == 0 { b.min.x } else { b.max.x },
            if corner.1 == 0 { b.min.y } else { b.max.y },
            if corner.2 == 0 { b.min.z } else { b.max.z },
        );

        let all = dec.neighbors(gid);
        let everywhere = ex.destinations_near(gid, p, size * 4.0);
        prop_assert_eq!(everywhere.len(), all.len(), "huge ghost must reach all links");

        // at ghost 0 the corner particle still touches every block sharing
        // that corner: in each dimension the neighbor step toward the corner
        // (or staying) keeps distance 0, so ≥ the corner's link count when
        // those links exist
        let touching = ex.destinations_near(gid, p, 0.0);
        for n in &touching {
            prop_assert!(
                dist_to_box(&dec.block_bounds(n.gid), p + n.xform) == 0.0,
                "ghost 0 must only return touching blocks"
            );
        }
        // and conversely every touching link is returned
        let n_touch = all
            .iter()
            .filter(|n| dist_to_box(&dec.block_bounds(n.gid), p + n.xform) == 0.0)
            .count();
        prop_assert_eq!(touching.len(), n_touch);
    }

    /// Periodic wrap: a particle at the low domain face targets the block
    /// on the far side through the periodic link, and the transformed
    /// coordinate it would be sent with lands within ghost of that block.
    #[test]
    fn periodic_seam_targets_far_side(
        dims_x in 2usize..=4,
        off_frac in 0.0f64..0.2,
    ) {
        let size = 8.0;
        let dec = Decomposition::with_dims(
            Aabb::cube(size),
            [dims_x, 1, 1],
            [true, false, false],
        );
        let asn = Assignment::new(dims_x, 1);
        let ex = NeighborExchange::new(&dec, &asn);
        let ghost = 0.5 * size / dims_x as f64;
        // near the x=0 seam, inside block 0, within ghost of the seam
        let p = Vec3::new(off_frac * ghost, size * 0.5, size * 0.5);

        let got = ex.destinations_near(0, p, ghost);
        let far = dec.nblocks() as u64 - 1;
        let wrapped: Vec<_> = got.iter().filter(|n| n.gid == far && n.periodic).collect();
        prop_assert_eq!(wrapped.len(), 1, "expected exactly one periodic link to block {}", far);
        let n = wrapped[0];
        // the transform shifts the particle up by the domain length so the
        // receiver sees it adjacent to its own bounds
        prop_assert!((n.xform.x - size).abs() < 1e-12);
        prop_assert!(dist_to_box(&dec.block_bounds(far), p + n.xform) <= ghost);
    }

    /// A halo that grows through any monotone radius sequence receives
    /// each particle exactly once per link: the shells `(r[k-1], r[k]]`
    /// (the first one open below, so distance 0 ships in round 0 even at
    /// radius 0) are pairwise disjoint and their union is
    /// `destinations_near(final radius)` — link by link, so the several
    /// links a small periodic grid has to one gid (itself included) count
    /// separately.
    #[test]
    fn shells_of_a_growing_radius_partition_the_final_ball(
        dims in (1usize..=3, 1usize..=3, 1usize..=3),
        periodic in (any::<bool>(), any::<bool>(), any::<bool>()),
        gid_frac in 0.0f64..1.0,
        modes in (0usize..6, 0usize..6, 0usize..6),
        ts in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        start_at_zero in any::<bool>(),
        steps in proptest::collection::vec(0.0f64..0.3, 1..6),
    ) {
        let size = 9.0;
        let dims = [dims.0, dims.1, dims.2];
        let periodic = [periodic.0, periodic.1, periodic.2];
        let dec = Decomposition::with_dims(Aabb::cube(size), dims, periodic);
        let nblocks = dec.nblocks();
        let asn = Assignment::new(nblocks, 1);
        let ex = NeighborExchange::new(&dec, &asn);
        let gid = ((gid_frac * nblocks as f64) as u64).min(nblocks as u64 - 1);
        let b = dec.block_bounds(gid);
        let p = Vec3::new(
            place(b.min.x, b.max.x, modes.0, ts.0),
            place(b.min.y, b.max.y, modes.1, ts.1),
            place(b.min.z, b.max.z, modes.2, ts.2),
        );

        // monotone radii; a zero step repeats a radius (an empty shell)
        let mut radii = Vec::new();
        let mut r = 0.0;
        for (k, step) in steps.iter().enumerate() {
            if k > 0 || !start_at_zero {
                r += step * dec.min_block_extent();
            }
            radii.push(r);
        }

        let mut shipped = Vec::new();
        let mut held = f64::NEG_INFINITY;
        for &want in &radii {
            for n in ex.destinations_in_shell(gid, p, |_| Some((held, want))) {
                prop_assert!(
                    !shipped.contains(&n),
                    "link {:?} shipped twice (radii {:?})",
                    n,
                    radii
                );
                shipped.push(n);
            }
            held = want;
        }
        let ball = ex.destinations_near(gid, p, held);
        prop_assert_eq!(shipped.len(), ball.len(), "radii {:?}", radii);
        for n in &ball {
            prop_assert!(
                shipped.contains(n),
                "link {:?} within the final radius never shipped (radii {:?})",
                n,
                radii
            );
        }
    }
}
