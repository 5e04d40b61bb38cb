//! Block decomposition of a 3D domain with periodic neighborhoods.
//!
//! Two schemes share one API surface:
//!
//! * **Regular** — the global domain is split into a
//!   `dims[0] × dims[1] × dims[2]` grid of equal blocks (DIY's regular
//!   decomposer).
//! * **K-d** — recursive median cuts over a particle sample, splitting the
//!   longest axis so each side receives a particle count proportional to
//!   its block budget. On clustered snapshots this bounds the per-block
//!   particle count, which is what bounds the slowest rank.
//!
//! Each block knows its neighborhood; when a dimension is periodic, blocks
//! on one edge of the domain are linked to blocks on the opposite edge
//! (*periodic boundary neighbors*, one of the two features the paper added
//! to DIY). Each neighbor link carries the coordinate translation to apply
//! to data sent across the periodic seam. Neighbor links are computed from
//! axis-aligned box adjacency under periodic images, so both schemes — and
//! any future irregular one — share the same code path.

use geometry::{Aabb, Vec3};

/// One neighbor link of a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Global id of the neighboring block.
    pub gid: u64,
    /// Direction of the link per dimension (components in -1..=1): the
    /// side of this block the neighbor touches, 0 when they overlap in
    /// that dimension.
    pub dir: [i32; 3],
    /// Translation to add to a point's coordinates when sending it to this
    /// neighbor. Zero unless the link crosses a periodic boundary.
    pub xform: Vec3,
    /// `true` when the link wraps around a periodic boundary.
    pub periodic: bool,
}

/// One node of the k-d cut tree. Leaves are numbered left-to-right, so
/// gid order is a spatial order and contiguous rank ranges stay coherent.
#[derive(Debug, Clone, Copy)]
enum KdNode {
    Leaf(u64),
    Split {
        axis: u8,
        cut: f64,
        left: u32,
        right: u32,
    },
}

/// Scheme-specific block geometry.
#[derive(Debug, Clone)]
enum SchemeData {
    Regular {
        dims: [usize; 3],
    },
    Kd {
        nodes: Vec<KdNode>,
        leaves: Vec<Aabb>,
    },
}

/// A decomposition of `domain` into blocks (regular grid or k-d tree).
#[derive(Debug, Clone)]
pub struct Decomposition {
    pub domain: Aabb,
    pub periodic: [bool; 3],
    scheme: SchemeData,
}

impl Decomposition {
    /// Decompose `domain` into exactly `nblocks` blocks using a near-cubic
    /// factorization (mirrors DIY's regular decomposer).
    pub fn regular(domain: Aabb, nblocks: usize, periodic: [bool; 3]) -> Self {
        assert!(nblocks > 0, "need at least one block");
        let dims = factor3(nblocks);
        Decomposition {
            domain,
            periodic,
            scheme: SchemeData::Regular { dims },
        }
    }

    /// Regular decomposition with explicit per-dimension block counts.
    pub fn with_dims(domain: Aabb, dims: [usize; 3], periodic: [bool; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "block grid dims must be positive"
        );
        Decomposition {
            domain,
            periodic,
            scheme: SchemeData::Regular { dims },
        }
    }

    /// Particle-count-balanced k-d decomposition: recursive median cuts
    /// over `points` (subsampled to at most `max_sample` when non-zero),
    /// always splitting the longest axis of the current box. A split of a
    /// `n`-block budget sends `n/2` blocks left, so arbitrary (not just
    /// power-of-two) block counts balance. Degenerate levels — empty
    /// samples or duplicate coordinates straddling the median — fall back
    /// to a volume-proportional cut.
    pub fn kd(
        domain: Aabb,
        nblocks: usize,
        periodic: [bool; 3],
        points: &[Vec3],
        max_sample: usize,
    ) -> Self {
        assert!(nblocks > 0, "need at least one block");
        let e = domain.extent();
        let stride = if max_sample > 0 && points.len() > max_sample {
            points.len().div_ceil(max_sample)
        } else {
            1
        };
        let mut sample: Vec<Vec3> = points
            .iter()
            .step_by(stride)
            .map(|&p| {
                let mut q = p;
                for d in 0..3 {
                    if periodic[d] {
                        q[d] = domain.min[d] + (q[d] - domain.min[d]).rem_euclid(e[d]);
                    } else {
                        q[d] = q[d].clamp(domain.min[d], domain.max[d]);
                    }
                }
                q
            })
            .collect();
        let mut nodes = Vec::with_capacity(2 * nblocks);
        let mut leaves = Vec::with_capacity(nblocks);
        build_kd(&mut sample, domain, nblocks, &mut nodes, &mut leaves);
        Decomposition {
            domain,
            periodic,
            scheme: SchemeData::Kd { nodes, leaves },
        }
    }

    pub fn nblocks(&self) -> usize {
        match &self.scheme {
            SchemeData::Regular { dims } => dims[0] * dims[1] * dims[2],
            SchemeData::Kd { leaves, .. } => leaves.len(),
        }
    }

    /// One word naming the scheme (for labels and reports).
    pub fn scheme_name(&self) -> &'static str {
        match &self.scheme {
            SchemeData::Regular { .. } => "regular",
            SchemeData::Kd { .. } => "kd",
        }
    }

    /// Grid dims of a regular decomposition (`None` for k-d).
    pub fn grid_dims(&self) -> Option<[usize; 3]> {
        match &self.scheme {
            SchemeData::Regular { dims } => Some(*dims),
            SchemeData::Kd { .. } => None,
        }
    }

    fn dims(&self) -> [usize; 3] {
        self.grid_dims()
            .expect("grid coordinates only exist for regular decompositions")
    }

    /// Grid coordinates of block `gid` (x fastest; regular scheme only).
    pub fn coords(&self, gid: u64) -> [usize; 3] {
        let dims = self.dims();
        let g = gid as usize;
        assert!(g < self.nblocks(), "gid {gid} out of range");
        [
            g % dims[0],
            (g / dims[0]) % dims[1],
            g / (dims[0] * dims[1]),
        ]
    }

    /// Global id of the block at grid coordinates `c` (regular scheme only).
    pub fn gid(&self, c: [usize; 3]) -> u64 {
        let dims = self.dims();
        debug_assert!(c[0] < dims[0] && c[1] < dims[1] && c[2] < dims[2]);
        (c[0] + dims[0] * (c[1] + dims[1] * c[2])) as u64
    }

    /// Spatial bounds of block `gid`.
    ///
    /// Regular bounds are computed from the global bounds so adjacent
    /// blocks share exact boundary coordinates (no accumulation of
    /// rounding across the grid); k-d leaves inherit their cut planes
    /// verbatim, which gives the same exact-sharing property.
    pub fn block_bounds(&self, gid: u64) -> Aabb {
        match &self.scheme {
            SchemeData::Regular { dims } => {
                let c = self.coords(gid);
                let lo = self.domain.min;
                let e = self.domain.extent();
                let f = |d: usize, i: usize| lo[d] + e[d] * (i as f64) / (dims[d] as f64);
                Aabb::new(
                    Vec3::new(f(0, c[0]), f(1, c[1]), f(2, c[2])),
                    Vec3::new(f(0, c[0] + 1), f(1, c[1] + 1), f(2, c[2] + 1)),
                )
            }
            SchemeData::Kd { leaves, .. } => leaves[gid as usize],
        }
    }

    /// Smallest block edge length over all blocks (the adaptive ghost
    /// radius cap: 1-ring adjacency only reaches one block deep).
    pub fn min_block_extent(&self) -> f64 {
        (0..self.nblocks() as u64)
            .map(|g| {
                let e = self.block_bounds(g).extent();
                e.x.min(e.y).min(e.z)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The block owning point `p` (after periodic wrapping in periodic
    /// dimensions; non-periodic dimensions clamp to the domain).
    pub fn block_of_point(&self, p: Vec3) -> u64 {
        let e = self.domain.extent();
        match &self.scheme {
            SchemeData::Regular { dims } => {
                let mut c = [0usize; 3];
                for d in 0..3 {
                    let mut x = p[d];
                    if self.periodic[d] {
                        x = self.domain.min[d] + (x - self.domain.min[d]).rem_euclid(e[d]);
                    }
                    let t = ((x - self.domain.min[d]) / e[d] * dims[d] as f64).floor();
                    c[d] = (t as isize).clamp(0, dims[d] as isize - 1) as usize;
                }
                self.gid(c)
            }
            SchemeData::Kd { nodes, .. } => {
                let mut q = p;
                for d in 0..3 {
                    if self.periodic[d] {
                        q[d] = self.domain.min[d] + (q[d] - self.domain.min[d]).rem_euclid(e[d]);
                    }
                }
                let mut i = 0usize;
                loop {
                    match nodes[i] {
                        KdNode::Leaf(g) => return g,
                        KdNode::Split {
                            axis,
                            cut,
                            left,
                            right,
                        } => {
                            i = if q[axis as usize] < cut {
                                left as usize
                            } else {
                                right as usize
                            };
                        }
                    }
                }
            }
        }
    }

    /// All neighbor links of block `gid`, computed from axis-aligned box
    /// proximity: block `b` under periodic image `s ∈ {-1,0,1}³` is a
    /// neighbor iff translating this block's bounds by `s·L` brings the two
    /// boxes within [`min_block_extent`](Self::min_block_extent) on every
    /// axis (strictly, so a regular grid — whose smallest positive gap per
    /// axis is a full block extent — keeps exactly its 26-neighborhood,
    /// including self-links across the seam of small grids, where the same
    /// block appears under several distinct translations). The slack
    /// matters for irregular k-d blocks: at a T-junction, a block can sit
    /// within the ghost radius of `gid` *without touching it* (a thin gap
    /// on one axis), and the ghost exchange can only reach blocks that are
    /// linked here. Since the adaptive ghost cap is `min_block_extent`,
    /// proximity below that bound is exactly the set a maximal halo can
    /// ever need.
    pub fn neighbors(&self, gid: u64) -> Vec<Neighbor> {
        let a = self.block_bounds(gid);
        let e = self.domain.extent();
        let reach = self.min_block_extent();
        let tol = [1e-9 * e[0], 1e-9 * e[1], 1e-9 * e[2]];
        let range = |d: usize| {
            if self.periodic[d] {
                -1i32..=1
            } else {
                0..=0
            }
        };
        let mut out = Vec::with_capacity(26);
        for sz in range(2) {
            for sy in range(1) {
                for sx in range(0) {
                    let s = [sx, sy, sz];
                    let shift = Vec3::new(sx as f64 * e[0], sy as f64 * e[1], sz as f64 * e[2]);
                    'blocks: for b in 0..self.nblocks() as u64 {
                        if b == gid && s == [0, 0, 0] {
                            continue;
                        }
                        let bb = self.block_bounds(b);
                        let mut dir = [0i32; 3];
                        for d in 0..3 {
                            let lo = a.min[d] + shift[d];
                            let hi = a.max[d] + shift[d];
                            // Strict: gap == reach (a regular grid's
                            // 2-ring) stays out; gap < reach (a k-d
                            // T-junction sliver) is in.
                            if lo >= bb.max[d] + reach - tol[d] || hi <= bb.min[d] - reach + tol[d]
                            {
                                continue 'blocks;
                            }
                            dir[d] = if hi <= bb.min[d] + tol[d] {
                                1
                            } else if lo >= bb.max[d] - tol[d] {
                                -1
                            } else {
                                0
                            };
                        }
                        out.push(Neighbor {
                            gid: b,
                            dir,
                            // Data sent to `b` lands at `p + s·L` in its frame.
                            xform: shift,
                            periodic: s != [0, 0, 0],
                        });
                    }
                }
            }
        }
        out
    }
}

/// Recursive k-d construction; leaves are pushed in left-to-right order so
/// `leaves[gid]` indexes them directly. Returns the node index.
fn build_kd(
    pts: &mut [Vec3],
    bbox: Aabb,
    n: usize,
    nodes: &mut Vec<KdNode>,
    leaves: &mut Vec<Aabb>,
) -> usize {
    if n == 1 {
        let gid = leaves.len() as u64;
        leaves.push(bbox);
        nodes.push(KdNode::Leaf(gid));
        return nodes.len() - 1;
    }
    let n1 = n / 2;
    let e = bbox.extent();
    let axis = if e.x >= e.y && e.x >= e.z {
        0
    } else if e.y >= e.z {
        1
    } else {
        2
    };
    let cut = choose_cut(pts, axis, &bbox, n1, n);
    let split = partition_lt(pts, axis, cut);
    let idx = nodes.len();
    nodes.push(KdNode::Leaf(u64::MAX)); // placeholder, patched below
    let mut lo_box = bbox;
    lo_box.max[axis] = cut;
    let mut hi_box = bbox;
    hi_box.min[axis] = cut;
    let (lpts, rpts) = pts.split_at_mut(split);
    let left = build_kd(lpts, lo_box, n1, nodes, leaves) as u32;
    let right = build_kd(rpts, hi_box, n - n1, nodes, leaves) as u32;
    nodes[idx] = KdNode::Split {
        axis: axis as u8,
        cut,
        left,
        right,
    };
    idx
}

/// Cut coordinate sending a `n1/n` share of `pts` strictly left, chosen
/// between the two straddling order statistics. Falls back to the
/// volume-proportional cut when the sample is too small or duplicate
/// coordinates make a clean median impossible.
fn choose_cut(pts: &mut [Vec3], axis: usize, bbox: &Aabb, n1: usize, n: usize) -> f64 {
    let fallback = bbox.min[axis] + bbox.extent()[axis] * n1 as f64 / n as f64;
    let len = pts.len();
    let k = len * n1 / n;
    if k == 0 || k >= len {
        return fallback;
    }
    pts.select_nth_unstable_by(k, |a, b| a[axis].total_cmp(&b[axis]));
    let pivot = pts[k][axis];
    let left_max = pts[..k]
        .iter()
        .map(|p| p[axis])
        .fold(f64::NEG_INFINITY, f64::max);
    let cut = 0.5 * (left_max + pivot);
    if left_max < cut && cut <= pivot && cut > bbox.min[axis] && cut < bbox.max[axis] {
        cut
    } else {
        fallback
    }
}

/// In-place stable-count partition by `p[axis] < cut`; returns the split
/// index. The explicit `<` comparison must match `block_of_point`'s walk.
fn partition_lt(pts: &mut [Vec3], axis: usize, cut: f64) -> usize {
    let mut i = 0;
    for j in 0..pts.len() {
        if pts[j][axis] < cut {
            pts.swap(i, j);
            i += 1;
        }
    }
    i
}

/// Near-cubic factorization of `n` into three factors, largest spread
/// minimized (greedy over the prime factorization, matching DIY's decomposer
/// closely enough for benchmarking).
pub fn factor3(n: usize) -> [usize; 3] {
    let mut best = [n, 1, 1];
    let mut best_score = usize::MAX;
    // Enumerate all factorizations a*b*c = n with a <= b <= c.
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    let score = c - a; // minimize spread
                    if score < best_score {
                        best_score = score;
                        best = [a, b, c];
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Which decomposition scheme to build, with its parameters. Parsed from
/// the `TESS_DECOMP` env knob (`regular` | `kd` | `kd:<max_sample>`) or
/// the framework's `decomp` config directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompScheme {
    Regular,
    /// K-d median cuts over at most `sample` points (0 = use all points).
    Kd {
        sample: usize,
    },
}

impl DecompScheme {
    /// Default subsample cap for the k-d builder: enough for a stable
    /// median at any practical block count, cheap to sort.
    pub const DEFAULT_KD_SAMPLE: usize = 1 << 16;

    /// Parse `regular`, `kd`, or `kd:<max_sample>`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "regular" => Some(DecompScheme::Regular),
            "kd" => Some(DecompScheme::Kd {
                sample: Self::DEFAULT_KD_SAMPLE,
            }),
            rest => {
                let sample = rest.strip_prefix("kd:")?.parse().ok()?;
                Some(DecompScheme::Kd { sample })
            }
        }
    }

    /// Scheme from the `TESS_DECOMP` env var; unset/empty means regular.
    pub fn from_env() -> Self {
        match std::env::var("TESS_DECOMP") {
            Ok(v) if !v.trim().is_empty() => Self::parse(&v)
                .unwrap_or_else(|| panic!("invalid TESS_DECOMP={v:?} (regular|kd|kd:<sample>)")),
            _ => DecompScheme::Regular,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            DecompScheme::Regular => "regular",
            DecompScheme::Kd { .. } => "kd",
        }
    }

    /// Build the decomposition this scheme describes. `points` is only
    /// consulted by the k-d scheme.
    pub fn build(
        &self,
        domain: Aabb,
        nblocks: usize,
        periodic: [bool; 3],
        points: &[Vec3],
    ) -> Decomposition {
        match *self {
            DecompScheme::Regular => Decomposition::regular(domain, nblocks, periodic),
            DecompScheme::Kd { sample } => {
                Decomposition::kd(domain, nblocks, periodic, points, sample)
            }
        }
    }
}

/// Assignment of blocks to ranks: contiguous gid ranges delimited by
/// `cuts`. `new` gives DIY's uniform split; `weighted` places the cuts to
/// minimize the heaviest rank's total block weight (particle counts), so
/// placement stays balanced even when per-block costs aren't.
#[derive(Debug, Clone)]
pub struct Assignment {
    pub nblocks: usize,
    pub nranks: usize,
    /// `nranks + 1` fenceposts: rank `r` owns gids `cuts[r]..cuts[r+1]`.
    cuts: Vec<u64>,
}

impl Assignment {
    pub fn new(nblocks: usize, nranks: usize) -> Self {
        assert!(nranks > 0 && nblocks > 0);
        assert!(
            nblocks >= nranks,
            "need at least one block per rank ({nblocks} blocks, {nranks} ranks)"
        );
        let cuts = (0..=nranks)
            .map(|r| (r * nblocks / nranks) as u64)
            .collect();
        Assignment {
            nblocks,
            nranks,
            cuts,
        }
    }

    /// Optimal contiguous partition of `weights` into `nranks` non-empty
    /// bins minimizing the maximum bin weight (binary search on the answer
    /// with a greedy feasibility check).
    pub fn weighted(weights: &[u64], nranks: usize) -> Self {
        let nblocks = weights.len();
        assert!(nranks > 0 && nblocks > 0);
        assert!(
            nblocks >= nranks,
            "need at least one block per rank ({nblocks} blocks, {nranks} ranks)"
        );
        let feasible = |m: u128| -> Option<Vec<u64>> {
            let mut cuts = vec![0u64];
            let mut i = 0usize;
            for r in 0..nranks {
                let bins_left = nranks - r - 1;
                // every bin takes at least one block, and must leave one
                // block per remaining bin
                let mut sum = weights[i] as u128;
                i += 1;
                while i < nblocks - bins_left && sum + weights[i] as u128 <= m {
                    sum += weights[i] as u128;
                    i += 1;
                }
                if sum > m {
                    return None;
                }
                cuts.push(i as u64);
            }
            (i == nblocks).then_some(cuts)
        };
        let mut lo = weights.iter().copied().max().unwrap_or(0) as u128;
        let mut hi = weights.iter().map(|&w| w as u128).sum::<u128>().max(lo);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let cuts = feasible(lo).expect("total weight is always feasible");
        Assignment {
            nblocks,
            nranks,
            cuts,
        }
    }

    /// The rank that owns block `gid`.
    pub fn rank_of_block(&self, gid: u64) -> usize {
        assert!((gid as usize) < self.nblocks);
        self.cuts.partition_point(|&c| c <= gid) - 1
    }

    /// The contiguous range of block gids owned by `rank`.
    pub fn blocks_of_rank(&self, rank: usize) -> std::ops::Range<u64> {
        assert!(rank < self.nranks);
        self.cuts[rank]..self.cuts[rank + 1]
    }
}

/// Per-block and per-rank particle counts for a (decomposition,
/// assignment) pair — the balance report the schemes are judged by.
#[derive(Debug, Clone)]
pub struct BalanceStats {
    /// Particle count per block gid.
    pub block_particles: Vec<u64>,
    /// Particle count per rank under the assignment.
    pub rank_particles: Vec<u64>,
}

impl BalanceStats {
    pub fn measure(dec: &Decomposition, asn: &Assignment, points: &[Vec3]) -> Self {
        let mut block_particles = vec![0u64; dec.nblocks()];
        for &p in points {
            block_particles[dec.block_of_point(p) as usize] += 1;
        }
        let mut rank_particles = vec![0u64; asn.nranks];
        for (gid, &n) in block_particles.iter().enumerate() {
            rank_particles[asn.rank_of_block(gid as u64)] += n;
        }
        BalanceStats {
            block_particles,
            rank_particles,
        }
    }

    fn max_over_mean(counts: &[u64]) -> f64 {
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = counts.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max * counts.len() as f64 / sum as f64
    }

    /// Max/mean particle count over ranks (1.0 = perfectly balanced).
    pub fn rank_imbalance(&self) -> f64 {
        Self::max_over_mean(&self.rank_particles)
    }

    /// Max/mean particle count over blocks.
    pub fn block_imbalance(&self) -> f64 {
        Self::max_over_mean(&self.block_particles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_is_near_cubic() {
        assert_eq!(factor3(1), [1, 1, 1]);
        assert_eq!(factor3(8), [2, 2, 2]);
        assert_eq!(factor3(64), [4, 4, 4]);
        assert_eq!(factor3(12), [2, 2, 3]);
        assert_eq!(factor3(7), [1, 1, 7]); // prime: nothing better exists
        let f = factor3(24);
        assert_eq!(f.iter().product::<usize>(), 24);
        assert_eq!(f, [2, 3, 4]);
    }

    #[test]
    fn coords_gid_roundtrip() {
        let dec = Decomposition::with_dims(Aabb::cube(8.0), [2, 3, 4], [true; 3]);
        for gid in 0..dec.nblocks() as u64 {
            assert_eq!(dec.gid(dec.coords(gid)), gid);
        }
    }

    #[test]
    fn block_bounds_tile_the_domain() {
        let dec = Decomposition::regular(Aabb::cube(10.0), 8, [true; 3]);
        assert_eq!(dec.grid_dims(), Some([2, 2, 2]));
        let total: f64 = (0..8).map(|g| dec.block_bounds(g).volume()).sum();
        assert!((total - 1000.0).abs() < 1e-9);
        // shared boundary coordinates are exact
        let b0 = dec.block_bounds(0);
        let b1 = dec.block_bounds(1);
        assert_eq!(b0.max.x, b1.min.x);
    }

    #[test]
    fn block_of_point_matches_bounds() {
        let dec = Decomposition::with_dims(Aabb::cube(9.0), [3, 3, 3], [true; 3]);
        for gid in 0..dec.nblocks() as u64 {
            let c = dec.block_bounds(gid).center();
            assert_eq!(dec.block_of_point(c), gid);
        }
        // periodic wrap
        assert_eq!(
            dec.block_of_point(Vec3::new(-0.5, 0.5, 0.5)),
            dec.block_of_point(Vec3::new(8.5, 0.5, 0.5))
        );
    }

    #[test]
    fn interior_block_has_26_neighbors() {
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [4, 4, 4], [false; 3]);
        let center = dec.gid([1, 1, 1]);
        assert_eq!(dec.neighbors(center).len(), 26);
        // corner block of a non-periodic domain has only 7
        assert_eq!(dec.neighbors(dec.gid([0, 0, 0])).len(), 7);
    }

    #[test]
    fn periodic_corner_has_26_neighbors_with_transforms() {
        let dec = Decomposition::with_dims(Aabb::cube(4.0), [4, 4, 4], [true; 3]);
        let ns = dec.neighbors(dec.gid([0, 0, 0]));
        assert_eq!(ns.len(), 26);
        let wrapped: Vec<_> = ns.iter().filter(|n| n.periodic).collect();
        // 26 - 7 interior links wrap
        assert_eq!(wrapped.len(), 19);
        // the (-1,-1,-1) link goes to block (3,3,3) and shifts data up by L
        let diag = ns.iter().find(|n| n.dir == [-1, -1, -1]).unwrap();
        assert_eq!(diag.gid, dec.gid([3, 3, 3]));
        assert_eq!(diag.xform, Vec3::splat(4.0));
    }

    #[test]
    fn two_block_periodic_dimension_keeps_distinct_transforms() {
        // With 2 blocks in x, block 0's +x and -x neighbors are both block 1,
        // but with different transforms; both links must be kept.
        let dec = Decomposition::with_dims(Aabb::cube(2.0), [2, 1, 1], [true, false, false]);
        let ns = dec.neighbors(0);
        let to_b1: Vec<_> = ns.iter().filter(|n| n.gid == 1).collect();
        assert_eq!(to_b1.len(), 2);
        let xs: Vec<f64> = to_b1.iter().map(|n| n.xform.x).collect();
        assert!(xs.contains(&0.0) && (xs.contains(&2.0) || xs.contains(&-2.0)));
    }

    #[test]
    fn single_block_periodic_has_self_links() {
        let dec = Decomposition::with_dims(Aabb::cube(5.0), [1, 1, 1], [true; 3]);
        let ns = dec.neighbors(0);
        assert!(!ns.is_empty());
        assert!(ns.iter().all(|n| n.gid == 0 && n.periodic));
        // the 26 periodic images each contribute one distinct translation
        assert_eq!(ns.len(), 26);
    }

    /// A clustered set: most points in one octant, so a balanced k-d tree
    /// must cut unevenly in space.
    fn clumpy(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                if i % 8 != 0 {
                    // dense corner clump
                    Vec3::new(1.0 + t, 1.5 + (t * 7.0) % 1.0, 1.0 + (t * 3.0) % 1.0)
                } else {
                    // sparse far field
                    Vec3::new(8.0 + t, 9.0 - t, 7.0 + (t * 5.0) % 2.0)
                }
            })
            .collect()
    }

    #[test]
    fn kd_blocks_tile_the_domain_and_balance_particles() {
        let domain = Aabb::cube(10.0);
        let pts = clumpy(4000);
        for nblocks in [1usize, 2, 3, 5, 8, 16] {
            let dec = Decomposition::kd(domain, nblocks, [true; 3], &pts, 0);
            assert_eq!(dec.nblocks(), nblocks);
            let total: f64 = (0..nblocks as u64)
                .map(|g| dec.block_bounds(g).volume())
                .sum();
            assert!(
                (total - domain.volume()).abs() < 1e-6 * domain.volume(),
                "nblocks={nblocks}: volumes sum to {total}"
            );
            // every point lands in a block whose bounds contain it
            for &p in &pts {
                let g = dec.block_of_point(p);
                assert!(dec.block_bounds(g).contains(p), "{p:?} outside block {g}");
            }
            // particle balance: no block holds more than ~2x its share
            let asn = Assignment::new(nblocks, nblocks.min(4));
            let bal = BalanceStats::measure(&dec, &asn, &pts);
            assert!(
                bal.block_imbalance() < 2.0,
                "nblocks={nblocks}: block imbalance {}",
                bal.block_imbalance()
            );
        }
    }

    #[test]
    fn kd_beats_regular_balance_on_clustered_points() {
        let domain = Aabb::cube(10.0);
        let pts = clumpy(4000);
        let reg = Decomposition::regular(domain, 8, [true; 3]);
        let kd = Decomposition::kd(domain, 8, [true; 3], &pts, 0);
        let asn = Assignment::new(8, 4);
        let reg_bal = BalanceStats::measure(&reg, &asn, &pts);
        let kd_bal = BalanceStats::measure(&kd, &asn, &pts);
        assert!(
            kd_bal.rank_imbalance() < 1.25,
            "kd rank imbalance {}",
            kd_bal.rank_imbalance()
        );
        assert!(
            reg_bal.rank_imbalance() > kd_bal.rank_imbalance(),
            "regular {} vs kd {}",
            reg_bal.rank_imbalance(),
            kd_bal.rank_imbalance()
        );
    }

    #[test]
    fn kd_degenerate_inputs_fall_back_to_volume_cuts() {
        let domain = Aabb::cube(4.0);
        // no points at all: pure volume cuts, still a partition
        let dec = Decomposition::kd(domain, 8, [true; 3], &[], 0);
        let total: f64 = (0..8).map(|g| dec.block_bounds(g).volume()).sum();
        assert!((total - domain.volume()).abs() < 1e-9);
        // all points identical: median cut impossible everywhere
        let dup = vec![Vec3::splat(1.0); 100];
        let dec = Decomposition::kd(domain, 4, [false; 3], &dup, 0);
        let total: f64 = (0..4).map(|g| dec.block_bounds(g).volume()).sum();
        assert!((total - domain.volume()).abs() < 1e-9);
        let g = dec.block_of_point(Vec3::splat(1.0));
        assert!(dec.block_bounds(g).contains(Vec3::splat(1.0)));
    }

    #[test]
    fn kd_neighbors_are_symmetric_with_periodic_images() {
        let domain = Aabb::cube(10.0);
        let pts = clumpy(500);
        let dec = Decomposition::kd(domain, 8, [true, false, true], &pts, 0);
        for a in 0..dec.nblocks() as u64 {
            for n in dec.neighbors(a) {
                let back = dec.neighbors(n.gid);
                assert!(
                    back.iter()
                        .any(|m| m.gid == a && (m.xform + n.xform).norm() < 1e-9),
                    "link {a}->{} xform {:?} has no inverse",
                    n.gid,
                    n.xform
                );
            }
        }
    }

    #[test]
    fn decomp_scheme_parses() {
        assert_eq!(DecompScheme::parse("regular"), Some(DecompScheme::Regular));
        assert_eq!(
            DecompScheme::parse("kd"),
            Some(DecompScheme::Kd {
                sample: DecompScheme::DEFAULT_KD_SAMPLE
            })
        );
        assert_eq!(
            DecompScheme::parse("kd:4096"),
            Some(DecompScheme::Kd { sample: 4096 })
        );
        assert_eq!(DecompScheme::parse("hilbert"), None);
        assert_eq!(DecompScheme::parse("kd:x"), None);
    }

    #[test]
    fn assignment_is_contiguous_and_consistent() {
        for (nb, nr) in [(8, 4), (10, 3), (16, 16), (7, 2), (64, 5)] {
            let a = Assignment::new(nb, nr);
            let mut seen = 0u64;
            for r in 0..nr {
                for g in a.blocks_of_rank(r) {
                    assert_eq!(a.rank_of_block(g), r, "nb={nb} nr={nr} g={g}");
                    seen += 1;
                }
            }
            assert_eq!(seen, nb as u64);
        }
    }

    #[test]
    fn weighted_assignment_minimizes_the_heaviest_rank() {
        // one hot block: uniform ranges would pair it with others
        let w = [100u64, 1, 1, 1, 1, 1, 1, 1];
        let a = Assignment::weighted(&w, 4);
        let bin = |r: usize| -> u64 { a.blocks_of_rank(r).map(|g| w[g as usize]).sum() };
        let max: u64 = (0..4).map(bin).max().unwrap();
        assert_eq!(max, 100, "hot block must sit alone");
        // every rank still owns at least one block, all blocks covered
        let total: u64 = (0..4).map(|r| a.blocks_of_rank(r).count() as u64).sum();
        assert_eq!(total, 8);
        assert!((0..4).all(|r| a.blocks_of_rank(r).count() >= 1));

        // uniform weights reduce to the uniform split
        let u = Assignment::weighted(&[5u64; 8], 4);
        let n = Assignment::new(8, 4);
        for g in 0..8u64 {
            assert_eq!(u.rank_of_block(g), n.rank_of_block(g));
        }

        // zero-weight tail still yields non-empty bins
        let z = Assignment::weighted(&[7, 0, 0, 0], 4);
        assert!((0..4).all(|r| z.blocks_of_rank(r).count() == 1));
    }

    #[test]
    #[should_panic]
    fn more_ranks_than_blocks_rejected() {
        let _ = Assignment::new(2, 4);
    }
}
