//! Neighborhood data exchange.
//!
//! Implements the two communication patterns the paper added to DIY
//! (§III-C1):
//!
//! * **Periodic boundary neighbors** — items sent across a periodic seam
//!   have their coordinates translated to the far side of the domain via a
//!   caller-visible transform callback.
//! * **Targeted exchange** — an item is sent only to those neighbors whose
//!   block is within the ghost distance of the item's location ("destination
//!   neighbor identification based on proximity to a target point").

use std::collections::HashMap;

use geometry::Vec3;

use crate::codec::{Decode, Encode, Reader};
use crate::comm::World;
use crate::decomposition::{Assignment, Decomposition, Neighbor};

/// Helper binding a decomposition and an assignment for exchanges.
///
/// Neighbor links are precomputed per block at construction:
/// [`Decomposition::neighbors`] runs a box-adjacency scan over all blocks,
/// and the targeted-destination test below runs once per particle.
pub struct NeighborExchange<'a> {
    pub dec: &'a Decomposition,
    pub asn: &'a Assignment,
    links: Vec<Vec<Neighbor>>,
}

impl<'a> NeighborExchange<'a> {
    pub fn new(dec: &'a Decomposition, asn: &'a Assignment) -> Self {
        assert_eq!(dec.nblocks(), asn.nblocks);
        let links = (0..dec.nblocks() as u64)
            .map(|g| dec.neighbors(g))
            .collect();
        NeighborExchange { dec, asn, links }
    }

    /// Every neighbor link of `gid`.
    pub fn links(&self, gid: u64) -> &[Neighbor] {
        &self.links[gid as usize]
    }

    /// The neighbor links of `gid` whose blocks lie within `ghost` of point
    /// `p` (targeted destinations). For a periodic link the proximity test is
    /// performed in the neighbor's frame (`p + xform`).
    pub fn destinations_near(&self, gid: u64, p: Vec3, ghost: f64) -> Vec<Neighbor> {
        self.destinations_near_by(gid, p, |_| Some(ghost))
    }

    /// Like [`destinations_near`](Self::destinations_near), but with a
    /// per-destination ghost distance: `ghost_of(dest gid)` returns the
    /// distance that destination currently wants, or `None` to skip it
    /// entirely.
    pub fn destinations_near_by(
        &self,
        gid: u64,
        p: Vec3,
        ghost_of: impl Fn(u64) -> Option<f64>,
    ) -> Vec<Neighbor> {
        self.destinations_in_shell(gid, p, |g| {
            ghost_of(g).map(|want| (f64::NEG_INFINITY, want))
        })
    }

    /// The neighbor links of `gid` whose block sees `p` in the distance
    /// shell `held < d ≤ want`, where `shell_of(dest gid)` returns that
    /// destination's `(held, want)` or `None` to skip it. A halo only
    /// grows, so a destination that already holds radius `held` has
    /// received exactly the particles with `d ≤ held`: shipping the shell
    /// sends each particle once per link over any sequence of growing
    /// requests, with no record of what was sent. `held = −∞` means "holds
    /// nothing yet" — distinct from `0.0`, which has already received the
    /// particles touching the destination's bounds.
    pub fn destinations_in_shell(
        &self,
        gid: u64,
        p: Vec3,
        shell_of: impl Fn(u64) -> Option<(f64, f64)>,
    ) -> Vec<Neighbor> {
        self.links[gid as usize]
            .iter()
            .filter(|n| {
                shell_of(n.gid).is_some_and(|(held, want)| {
                    let d = self.dec.block_bounds(n.gid).distance(p + n.xform);
                    held < d && d <= want
                })
            })
            .copied()
            .collect()
    }

    /// Exchange typed items between blocks.
    ///
    /// `outgoing` maps a destination block gid to the items headed there
    /// (already transformed into the destination's frame by the caller).
    /// Returns the items received for each block owned by this rank, sorted
    /// by (source rank, send order) for determinism.
    pub fn exchange<T: Encode + Decode>(
        &self,
        world: &mut World,
        outgoing: Vec<(u64, T)>,
    ) -> HashMap<u64, Vec<T>> {
        self.exchange_inner(world, outgoing, None)
    }

    /// Like [`exchange`](Self::exchange), but the transport runs under the
    /// caller's message tag instead of an anonymous collective tag, so the
    /// per-tag counters in [`crate::metrics`] attribute the traffic to it.
    pub fn exchange_tagged<T: Encode + Decode>(
        &self,
        world: &mut World,
        outgoing: Vec<(u64, T)>,
        tag: u64,
    ) -> HashMap<u64, Vec<T>> {
        self.exchange_inner(world, outgoing, Some(tag))
    }

    fn exchange_inner<T: Encode + Decode>(
        &self,
        world: &mut World,
        mut outgoing: Vec<(u64, T)>,
        tag: Option<u64>,
    ) -> HashMap<u64, Vec<T>> {
        // The items and their encoding coexist until the send; a grown
        // vector's spare capacity would sit beside both.
        outgoing.shrink_to_fit();
        // One buffer per destination rank: a table of items per destination
        // block, then the `(gid, item)` pairs in send order. The buffer is
        // sized for items whose encoding is as large as their value, and
        // the table lets the receiver size each block's list exactly.
        let nblocks = self.dec.nblocks();
        let mut per_block = vec![0u64; nblocks];
        for (gid, _) in &outgoing {
            per_block[*gid as usize] += 1;
        }
        let mut buffers: Vec<Vec<u8>> = (0..world.nranks())
            .map(|rank| {
                let table: Vec<(u64, u64)> = (0..nblocks as u64)
                    .filter(|&g| per_block[g as usize] > 0 && self.asn.rank_of_block(g) == rank)
                    .map(|g| (g, per_block[g as usize]))
                    .collect();
                let n: u64 = table.iter().map(|&(_, c)| c).sum();
                let item = 8 + std::mem::size_of::<T>();
                let mut buf = Vec::with_capacity(8 + table.len() * 16 + 8 + n as usize * item);
                table.encode(&mut buf);
                n.encode(&mut buf);
                buf
            })
            .collect();
        for (gid, item) in outgoing {
            let buf = &mut buffers[self.asn.rank_of_block(gid)];
            gid.encode(buf);
            item.encode(buf);
        }
        {
            let metrics = world.metrics();
            for buf in &buffers {
                metrics.observe("exchange.payload_bytes", buf.len() as f64);
            }
        }

        let incoming = match tag {
            Some(t) => world.all_to_all_tagged(buffers, t),
            None => world.all_to_all(buffers),
        };
        let mut result: HashMap<u64, Vec<T>> = HashMap::new();
        for buf in incoming {
            // incoming is indexed by source rank: iteration order is
            // deterministic. Each block's list grows by exactly what this
            // source sends it, while the sources still to decode hold the
            // rest.
            let mut r = Reader::new(&buf);
            let table = Vec::<(u64, u64)>::decode(&mut r).expect("exchange table");
            for &(gid, n) in &table {
                result.entry(gid).or_default().reserve_exact(n as usize);
            }
            let n = u64::decode(&mut r).expect("exchange header");
            for _ in 0..n {
                let gid = u64::decode(&mut r).expect("exchange gid");
                let item = T::decode(&mut r).expect("exchange item");
                debug_assert_eq!(self.asn.rank_of_block(gid), world.rank());
                result.get_mut(&gid).expect("gid in the table").push(item);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Runtime;
    use geometry::Aabb;

    #[test]
    fn destinations_respect_ghost_distance() {
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [4, 1, 1], [false; 3]);
        let asn = Assignment::new(4, 1);
        let ex = NeighborExchange::new(&dec, &asn);
        // Block 1 spans x in [1,2). A point at x=1.9 is 0.1 from block 2 and
        // 0.9 from block 0.
        let p = Vec3::new(1.9, 0.5, 0.5);
        let near = ex.destinations_near(1, p, 0.2);
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].gid, 2);
        let far = ex.destinations_near(1, p, 1.0);
        let gids: Vec<u64> = far.iter().map(|n| n.gid).collect();
        assert!(gids.contains(&0) && gids.contains(&2));
    }

    #[test]
    fn periodic_destination_uses_transformed_frame() {
        // Figure 6's particle A: at the domain boundary, sent to the virtual
        // neighbor on the other side with transformed coordinates.
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [4, 1, 1], [true, false, false]);
        let asn = Assignment::new(4, 1);
        let ex = NeighborExchange::new(&dec, &asn);
        let p = Vec3::new(0.1, 0.5, 0.5); // in block 0, near the x=0 seam
        let near = ex.destinations_near(0, p, 0.2);
        assert_eq!(near.len(), 1);
        let n = near[0];
        assert_eq!(n.gid, 3);
        assert!(n.periodic);
        // transformed coordinate lands inside/near block 3's bounds
        let q = p + n.xform;
        assert!((q.x - 4.1).abs() < 1e-12);
        assert!(dec.block_bounds(3).distance(q) <= 0.2);
    }

    #[test]
    fn exchange_routes_items_to_owning_ranks() {
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [2, 2, 1], [false; 3]);
        let asn = Assignment::new(4, 2);
        let results = Runtime::run(2, |w| {
            let ex = NeighborExchange::new(&dec, &asn);
            // every rank sends its rank number to every block
            let outgoing: Vec<(u64, u64)> = (0..4u64).map(|gid| (gid, w.rank() as u64)).collect();
            let got = ex.exchange(w, outgoing);
            // this rank owns 2 blocks; each received one item from each rank
            let mut gids: Vec<u64> = got.keys().copied().collect();
            gids.sort_unstable();
            let expect: Vec<u64> = asn.blocks_of_rank(w.rank()).collect();
            assert_eq!(gids, expect);
            for items in got.values() {
                assert_eq!(items, &vec![0u64, 1]);
            }
            got.len()
        });
        assert_eq!(results, vec![2, 2]);
    }

    #[test]
    fn destinations_near_by_skips_blocks_without_a_radius() {
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [4, 1, 1], [false; 3]);
        let asn = Assignment::new(4, 1);
        let ex = NeighborExchange::new(&dec, &asn);
        let p = Vec3::new(1.9, 0.5, 0.5); // 0.1 from block 2, 0.9 from block 0
        let only2 = ex.destinations_near_by(1, p, |g| (g == 2).then_some(1.0));
        assert_eq!(only2.iter().map(|n| n.gid).collect::<Vec<_>>(), vec![2]);
        let none = ex.destinations_near_by(1, p, |_| None);
        assert!(none.is_empty());
        // per-destination radii: block 0 asks for a big halo, block 2 tiny
        let asym = ex.destinations_near_by(1, p, |g| Some(if g == 0 { 1.0 } else { 0.01 }));
        assert_eq!(asym.iter().map(|n| n.gid).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn exchange_preserves_order_and_handles_empty() {
        let dec = Decomposition::with_dims(Aabb::cube(2.0), [2, 1, 1], [false; 3]);
        let asn = Assignment::new(2, 2);
        Runtime::run(2, |w| {
            let ex = NeighborExchange::new(&dec, &asn);
            let outgoing: Vec<(u64, u32)> = if w.rank() == 0 {
                vec![(1, 10), (1, 11), (1, 12)]
            } else {
                vec![] // rank 1 sends nothing
            };
            let got = ex.exchange(w, outgoing);
            if w.rank() == 1 {
                assert_eq!(got[&1], vec![10, 11, 12]);
            } else {
                assert!(got.is_empty());
            }
        });
    }
}
