//! Seeded input generators. The program under test only ever sees what
//! these produce: the same seed gives the same bytes on every run.

use std::collections::BTreeMap;

use diy::decomposition::{Assignment, Decomposition};
use geometry::{Aabb, Vec3};
use tess::Query;

/// xoshiro256** seeded through SplitMix64. Written here rather than taken
/// from the `rand` shim so the inputs cannot change under the benchmark
/// when the shim does.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller; one of the pair is discarded).
    pub fn gauss(&mut self) -> f64 {
        let u = 1.0 - self.unit(); // (0, 1]
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn point_in(&mut self, b: &Aabb) -> Vec3 {
        Vec3::new(
            self.range(b.min.x, b.max.x),
            self.range(b.min.y, b.max.y),
            self.range(b.min.z, b.max.z),
        )
    }
}

/// Side of the periodic box the halo corpus lives in.
pub const HALO_BOX: f64 = 16.0;
const HALO_CLUMP_POINTS: usize = 600;
/// Strata the clump centres are drawn in, one clump each: 32 in the octant
/// `[0, 8)³` and 16 over the whole box.
const OCTANT_STRATA: [usize; 3] = [4, 4, 2];
const BOX_STRATA: [usize; 3] = [4, 2, 2];
/// Strata of the background points, one point each.
const BACKGROUND_STRATA: [usize; 3] = [10, 10, 12];

/// One uniform point in each cell of a `strata` grid over `[0, side)³`.
fn stratified(rng: &mut Rng, side: f64, strata: [usize; 3]) -> Vec<Vec3> {
    let cell = Vec3::new(
        side / strata[0] as f64,
        side / strata[1] as f64,
        side / strata[2] as f64,
    );
    let mut out = Vec::with_capacity(strata.iter().product());
    for i in 0..strata[0] {
        for j in 0..strata[1] {
            for k in 0..strata[2] {
                let lo = Vec3::new(i as f64 * cell.x, j as f64 * cell.y, k as f64 * cell.z);
                out.push(rng.point_in(&Aabb::new(lo, lo + cell)));
            }
        }
    }
    out
}

/// A halo-like clustered corpus: 48 Gaussian clumps of 600 points, two
/// thirds of them centred in one octant, over a thin background of 1 200 —
/// 30 000 points whose density spans four decades, so k-d blocks, ghost
/// depth and candidates per cell differ wildly across the box.
///
/// The seed jitters every clump centre and background point inside its
/// stratum and draws the clump members; the strata and the ladder of clump
/// widths (0.15 to 0.6) are fixed, so that every seed poses the same
/// statistical problem: the k-d cuts, the void sizes and the amount of
/// kernel work move by a few percent between seeds, not by tens.
pub fn halo_corpus(seed: u64) -> Vec<(u64, Vec3)> {
    let mut rng = Rng::new(seed ^ 0xC1A5_7E2E_D000_0001);
    let mut centres = stratified(&mut rng, HALO_BOX / 2.0, OCTANT_STRATA);
    centres.extend(stratified(&mut rng, HALO_BOX, BOX_STRATA));
    let clumps = centres.len();
    let mut pts = Vec::new();
    for (c, centre) in centres.into_iter().enumerate() {
        // 29 is coprime to 48: widths are spread over the box, not graded
        let rung = (c * 29) % clumps;
        let sigma = 0.15 + 0.45 * rung as f64 / (clumps - 1) as f64;
        for _ in 0..HALO_CLUMP_POINTS {
            let d = Vec3::new(rng.gauss(), rng.gauss(), rng.gauss()) * sigma;
            pts.push(wrap_into(HALO_BOX, centre + d));
        }
    }
    pts.extend(stratified(&mut rng, HALO_BOX, BACKGROUND_STRATA));
    pts.into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect()
}

/// Wrap `p` into the half-open periodic cube `[0, side)³`.
pub fn wrap_into(side: f64, p: Vec3) -> Vec3 {
    let w = |x: f64| {
        let r = x.rem_euclid(side);
        // rem_euclid of a tiny negative rounds up to exactly `side`
        if r >= side {
            0.0
        } else {
            r
        }
    };
    Vec3::new(w(p.x), w(p.y), w(p.z))
}

/// The particles of `rank`'s blocks, keyed by block gid — the map the
/// tessellation drivers take.
pub fn partition(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    asn: &Assignment,
    rank: usize,
) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
    let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
        asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
    for &(id, p) in particles {
        if let Some(v) = local.get_mut(&dec.block_of_point(p)) {
            v.push((id, p));
        }
    }
    local
}

/// Endless seeded query mix for the service workloads: 80 % point
/// lookups, 10 % box extractions with sides of 1–4, 10 % region summaries
/// over a quarter of the box; every 16th request repeats one of 8 fixed
/// queries, so in-batch coalescing has something to find.
pub struct QueryStream {
    rng: Rng,
    side: f64,
    pool: Vec<Query>,
    issued: u64,
}

impl QueryStream {
    pub fn new(seed: u64, side: f64) -> QueryStream {
        let mut s = QueryStream {
            rng: Rng::new(seed ^ 0x51E4_7A11_0000_0002),
            side,
            pool: Vec::new(),
            issued: 0,
        };
        s.pool = (0..8).map(|_| s.fresh()).collect();
        s
    }

    fn fresh(&mut self) -> Query {
        let domain = Aabb::cube(self.side);
        match self.rng.below(10) {
            0 => {
                let e = Vec3::new(
                    self.rng.range(1.0, 4.0),
                    self.rng.range(1.0, 4.0),
                    self.rng.range(1.0, 4.0),
                );
                let lo = self.rng.point_in(&Aabb::new(domain.min, domain.max - e));
                Query::BoxCells(Aabb::new(lo, lo + e))
            }
            1 => {
                let e = Vec3::new(self.side / 2.0, self.side / 2.0, self.side);
                let lo = self.rng.point_in(&Aabb::new(domain.min, domain.max - e));
                Query::Region(Aabb::new(lo, lo + e))
            }
            _ => Query::Point(self.rng.point_in(&domain)),
        }
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        self.issued += 1;
        Some(if self.issued.is_multiple_of(16) {
            let i = self.rng.below(self.pool.len());
            self.pool[i].clone()
        } else {
            self.fresh()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(pts: &[(u64, Vec3)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (id, p) in pts {
            out.extend_from_slice(&id.to_le_bytes());
            for c in p.to_array() {
                out.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = halo_corpus(7);
        assert_eq!(bytes(&a), bytes(&halo_corpus(7)));
        assert_ne!(bytes(&a), bytes(&halo_corpus(8)));
    }

    #[test]
    fn corpus_has_the_stated_size_and_stays_in_the_box() {
        let pts = halo_corpus(1);
        assert_eq!(pts.len(), 30_000);
        let b = Aabb::cube(HALO_BOX);
        assert!(pts.iter().all(|&(_, p)| b.contains(p)));
        // ids are dense and unique
        assert!(pts.iter().enumerate().all(|(i, &(id, _))| id == i as u64));
        // clustered: well over half the points sit in one octant
        let oct = Aabb::cube(HALO_BOX / 2.0);
        let inside = pts.iter().filter(|&&(_, p)| oct.contains(p)).count();
        assert!(inside > pts.len() / 2, "{inside} of {}", pts.len());
    }

    #[test]
    fn query_stream_repeats_exactly_and_keeps_its_mix() {
        let a: Vec<Query> = QueryStream::new(3, 32.0).take(4000).collect();
        let b: Vec<Query> = QueryStream::new(3, 32.0).take(4000).collect();
        assert_eq!(a, b);
        let points = a.iter().filter(|q| matches!(q, Query::Point(_))).count();
        assert!((2900..3500).contains(&points), "{points} points of 4000");
        // every 16th request comes from the pool of 8
        let pool: Vec<&Query> = a.iter().skip(15).step_by(16).collect();
        let mut distinct: Vec<&Query> = Vec::new();
        for q in pool {
            if !distinct.contains(&q) {
                distinct.push(q);
            }
        }
        assert!(distinct.len() <= 8);
    }

    #[test]
    fn partition_covers_every_particle_once() {
        let pts = halo_corpus(2);
        let dec = Decomposition::regular(Aabb::cube(HALO_BOX), 8, [true; 3]);
        let asn = Assignment::new(8, 2);
        let n: usize = (0..2)
            .map(|r| {
                partition(&pts, &dec, &asn, r)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(n, pts.len());
    }
}
