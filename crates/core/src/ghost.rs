//! Neighborhood particle ghost-zone exchange (§III-C1).
//!
//! Every particle within the ghost distance of a block boundary is sent to
//! each neighbor sharing that boundary — including periodic boundary
//! neighbors, for which the particle's coordinates are translated to the
//! far side of the domain (Figure 6's particles A and B). The exchange is
//! bidirectional by construction: each block both sends and receives.

use std::collections::BTreeMap;

use diy::comm::World;
use diy::decomposition::{Assignment, Decomposition};
use diy::exchange::NeighborExchange;
use geometry::Vec3;

/// A particle headed to (or received by) a block: global id + position in
/// the receiving block's frame.
pub type GhostParticle = (u64, Vec3);

/// Base of the message-tag namespace for ghost exchange rounds: round `r`
/// sends under `GHOST_TAG_BASE + r`, so the per-tag counters in
/// [`diy::metrics`] break ghost traffic down by round. The fixed-radius
/// modes use round 0's tag.
pub const GHOST_TAG_BASE: u64 = 0x4753_0000; // "GS"

/// Rounds the tag namespace reserves (far above any real round count).
pub const GHOST_TAG_ROUNDS: u64 = 4096;

/// Message tag of ghost exchange round `round`.
pub fn ghost_round_tag(round: usize) -> u64 {
    debug_assert!((round as u64) < GHOST_TAG_ROUNDS);
    GHOST_TAG_BASE + round as u64
}

/// `true` when `tag` belongs to the ghost exchange namespace (for summing
/// ghost traffic out of a [`diy::metrics::RunReport`]).
pub fn is_ghost_tag(tag: u64) -> bool {
    (GHOST_TAG_BASE..GHOST_TAG_BASE + GHOST_TAG_ROUNDS).contains(&tag)
}

/// Canonical ghost ordering: by particle id, then by position. The raw
/// exchange delivers in (source rank, send order), which changes with the
/// rank count; after this sort a block's ghost list — and therefore its
/// tessellation — is bitwise identical however the senders were laid out.
pub fn sort_ghosts(v: &mut [GhostParticle]) {
    v.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.x.total_cmp(&b.1.x))
            .then_with(|| a.1.y.total_cmp(&b.1.y))
            .then_with(|| a.1.z.total_cmp(&b.1.z))
    });
}

/// One collective round of the ghost exchange. `request` maps block gid →
/// halo radius that block now wants and `held` maps block gid → radius it
/// already holds (no entry: nothing yet); every rank must pass the same
/// maps (they are built from collective data). Each owned particle goes to
/// every neighbor link whose requesting block sees it in the shell
/// `held < d ≤ request` ([`NeighborExchange::destinations_in_shell`]), so
/// over any sequence of growing requests a block receives each ghost once.
/// Returns the *new* ghosts per owned block, in arrival order; ghosts for a
/// block this rank does not own are dropped with a logged error — a
/// misrouted message must not silently materialize a foreign block.
pub(crate) fn exchange_round(
    world: &mut World,
    ex: &NeighborExchange,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    held: &BTreeMap<u64, f64>,
    request: &BTreeMap<u64, f64>,
    round: usize,
) -> BTreeMap<u64, Vec<GhostParticle>> {
    let shells: Vec<Option<(f64, f64)>> = (0..ex.dec.nblocks() as u64)
        .map(|g| {
            let want = *request.get(&g)?;
            Some((held.get(&g).copied().unwrap_or(f64::NEG_INFINITY), want))
        })
        .collect();
    let mut outgoing: Vec<(u64, GhostParticle)> = Vec::new();
    for (&gid, particles) in local {
        for &(pid, pos) in particles {
            for n in ex.destinations_in_shell(gid, pos, |g| shells[g as usize]) {
                outgoing.push((n.gid, (pid, pos + n.xform)));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (gid, items) in ex.exchange_tagged(world, outgoing, ghost_round_tag(round)) {
        if local.contains_key(&gid) {
            out.insert(gid, items);
        } else {
            diy::log_error!(
                "dropping {} ghosts for block {gid} not owned by rank {}",
                items.len(),
                world.rank()
            );
        }
    }
    out
}

/// Exchange ghost particles for all blocks owned by this rank: one
/// [`exchange_round`] in which every block requests `ghost`.
///
/// `local` maps owned block gid → original particles `(id, position)`.
/// Returns received ghosts per owned block, in canonical order
/// ([`sort_ghosts`]).
pub fn exchange_ghosts(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    ghost: f64,
) -> BTreeMap<u64, Vec<GhostParticle>> {
    let ex = NeighborExchange::new(dec, asn);
    let request = (0..dec.nblocks() as u64).map(|g| (g, ghost)).collect();
    let mut got = exchange_round(world, &ex, local, &BTreeMap::new(), &request, 0);
    local
        .keys()
        .map(|&gid| {
            let mut v = got.remove(&gid).unwrap_or_default();
            sort_ghosts(&mut v);
            (gid, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diy::comm::Runtime;
    use geometry::Aabb;

    fn block_particles(
        dec: &Decomposition,
        asn: &Assignment,
        rank: usize,
        all: &[(u64, Vec3)],
    ) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
        let mut m: BTreeMap<u64, Vec<(u64, Vec3)>> =
            asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
        for &(id, p) in all {
            let gid = dec.block_of_point(p);
            if let Some(v) = m.get_mut(&gid) {
                v.push((id, p));
            }
        }
        m
    }

    #[test]
    fn interior_particles_are_not_exchanged() {
        let dec = Decomposition::with_dims(Aabb::cube(8.0), [2, 1, 1], [false; 3]);
        let asn = Assignment::new(2, 1);
        // particle at the center of block 0, far from the seam at x=4
        let all = vec![(0u64, Vec3::new(1.0, 4.0, 4.0))];
        Runtime::run(1, |w| {
            let local = block_particles(&dec, &asn, w.rank(), &all);
            let ghosts = exchange_ghosts(w, &dec, &asn, &local, 1.0);
            assert!(ghosts[&0].is_empty());
            assert!(ghosts[&1].is_empty());
        });
    }

    #[test]
    fn boundary_particles_cross_the_seam_both_ways() {
        let dec = Decomposition::with_dims(Aabb::cube(8.0), [2, 1, 1], [false; 3]);
        let asn = Assignment::new(2, 2);
        let all = vec![
            (10u64, Vec3::new(3.5, 4.0, 4.0)), // in block 0, near seam
            (20u64, Vec3::new(4.5, 4.0, 4.0)), // in block 1, near seam
        ];
        Runtime::run(2, |w| {
            let local = block_particles(&dec, &asn, w.rank(), &all);
            let ghosts = exchange_ghosts(w, &dec, &asn, &local, 1.0);
            if w.rank() == 0 {
                assert_eq!(ghosts[&0], vec![(20, Vec3::new(4.5, 4.0, 4.0))]);
            } else {
                assert_eq!(ghosts[&1], vec![(10, Vec3::new(3.5, 4.0, 4.0))]);
            }
        });
    }

    #[test]
    fn periodic_ghosts_are_translated() {
        // Figure 6's particle A: near x=0 in a periodic box; block on the
        // far side receives it at x ≈ L.
        let dec = Decomposition::with_dims(Aabb::cube(8.0), [2, 1, 1], [true, false, false]);
        let asn = Assignment::new(2, 1);
        let all = vec![(5u64, Vec3::new(0.25, 4.0, 4.0))];
        Runtime::run(1, |w| {
            let local = block_particles(&dec, &asn, w.rank(), &all);
            let ghosts = exchange_ghosts(w, &dec, &asn, &local, 1.0);
            // block 1 spans [4,8); it receives the particle at x = 8.25
            // (just past its upper edge, within the ghost distance)
            assert_eq!(ghosts[&1], vec![(5, Vec3::new(8.25, 4.0, 4.0))]);
        });
    }

    #[test]
    fn single_periodic_block_mirrors_its_own_particles() {
        // Standalone mode: one block, periodic domain. Ghosts are the
        // block's own particles translated across the seams.
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [1, 1, 1], [true; 3]);
        let asn = Assignment::new(1, 1);
        // corner particle: mirrored across faces, edges, and the corner
        let all = vec![(1u64, Vec3::new(0.5, 0.5, 0.5))];
        Runtime::run(1, |w| {
            let local = block_particles(&dec, &asn, w.rank(), &all);
            let ghosts = exchange_ghosts(w, &dec, &asn, &local, 1.0);
            let g = &ghosts[&0];
            // 7 images within ghost distance: 3 faces + 3 edges + 1 corner
            assert_eq!(g.len(), 7, "{g:?}");
            for &(id, p) in g {
                assert_eq!(id, 1);
                // every image is outside the box but within the ghost halo
                assert!(!dec.domain.contains(p));
                assert!(dec.domain.grown(1.0).contains_closed(p));
            }
        });
    }

    #[test]
    fn adaptive_rounds_ship_only_the_delta_shell() {
        let dec = Decomposition::with_dims(Aabb::cube(8.0), [2, 1, 1], [false; 3]);
        let asn = Assignment::new(2, 1);
        // two particles in block 0 at different distances from the seam x=4
        let all = vec![
            (1u64, Vec3::new(3.5, 4.0, 4.0)), // 0.5 from the seam
            (2u64, Vec3::new(2.5, 4.0, 4.0)), // 1.5 from the seam
        ];
        Runtime::run(1, |w| {
            let local = block_particles(&dec, &asn, w.rank(), &all);
            let ex = NeighborExchange::new(&dec, &asn);
            let map = |r: f64| -> BTreeMap<u64, f64> { [(1u64, r)].into_iter().collect() };
            // round 0: only block 1 wants a 1.0 halo → particle 1 crosses
            let got0 = exchange_round(w, &ex, &local, &BTreeMap::new(), &map(1.0), 0);
            assert_eq!(got0[&1], vec![(1, Vec3::new(3.5, 4.0, 4.0))]);
            assert!(!got0.contains_key(&0));
            // round 1: block 1 holds 1.0 and grows to 2.0 → only particle 2 is new
            let got1 = exchange_round(w, &ex, &local, &map(1.0), &map(2.0), 1);
            assert_eq!(got1[&1], vec![(2, Vec3::new(2.5, 4.0, 4.0))]);
            // round 2: nothing grew → nothing moves
            let got2 = exchange_round(w, &ex, &local, &map(2.0), &map(2.0), 2);
            assert!(got2.is_empty());
        });
    }

    #[test]
    fn ghost_tags_form_a_user_namespace() {
        assert!(is_ghost_tag(ghost_round_tag(0)));
        assert!(is_ghost_tag(ghost_round_tag(17)));
        assert!(!is_ghost_tag(0));
        assert!(!is_ghost_tag(GHOST_TAG_BASE + GHOST_TAG_ROUNDS));
        // top bit clear: these are user tags, not collective tags
        assert_eq!(ghost_round_tag(5) >> 63, 0);
    }

    #[test]
    fn ghosts_arrive_in_canonical_order() {
        let mut v = vec![
            (7u64, Vec3::new(1.0, 0.0, 0.0)),
            (3, Vec3::new(2.0, 0.0, 0.0)),
            (7, Vec3::new(0.5, 0.0, 0.0)),
        ];
        sort_ghosts(&mut v);
        assert_eq!(
            v,
            vec![
                (3, Vec3::new(2.0, 0.0, 0.0)),
                (7, Vec3::new(0.5, 0.0, 0.0)),
                (7, Vec3::new(1.0, 0.0, 0.0)),
            ]
        );
    }

    #[test]
    fn ghost_zero_exchanges_nothing_interior() {
        let dec = Decomposition::with_dims(Aabb::cube(8.0), [2, 2, 2], [true; 3]);
        let asn = Assignment::new(8, 2);
        let all: Vec<(u64, Vec3)> = (0..50)
            .map(|i| {
                let x = 0.3 + (i as f64 * 0.149) % 7.4;
                (i, Vec3::new(x, (x * 1.7) % 8.0, (x * 2.3) % 8.0))
            })
            .collect();
        Runtime::run(2, |w| {
            let local = block_particles(&dec, &asn, w.rank(), &all);
            let ghosts = exchange_ghosts(w, &dec, &asn, &local, 0.0);
            // ghost 0 exchanges only particles exactly on boundaries; our
            // set has none
            let total: usize = ghosts.values().map(Vec::len).sum();
            assert_eq!(total, 0);
        });
    }
}
