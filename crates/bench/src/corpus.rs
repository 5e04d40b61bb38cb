//! Clustered particle corpora shared by the benches and the integration
//! tests.
//!
//! Cosmological particle sets are nothing like uniform: most mass sits in
//! halo clumps strung along filaments, with voids in between. That
//! anisotropy is what stresses the cell kernel (void cells are large and
//! elongated, so ordered emission + the support reject prune hardest
//! there) and what breaks volume-uniform block decompositions
//! (one octant holds most of the particles). The generator here is the
//! single seeded source of such corpora; the kernel-equivalence and
//! adversarial-corpus tests and the decomposition A/B benches all draw
//! from it instead of keeping private copies.

use geometry::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Recipe for a seeded clustered corpus: Gaussian halo clumps, an optional
/// diagonal filament, and a sparse uniform background.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Box side; points live in `[0, side)^3` (wrapped periodically).
    pub side: f64,
    /// Number of Gaussian halo clumps.
    pub nclumps: usize,
    /// Points per clump.
    pub per_clump: usize,
    /// Clump width as a fraction of `side`.
    pub sigma_frac: f64,
    /// Every k-th clump point is drawn at 8x the clump width (an NFW-ish
    /// outskirt); 0 disables outliers.
    pub outlier_every: usize,
    /// Points strung along the main diagonal of the clustered region with
    /// clump-width jitter.
    pub filament: usize,
    /// Uniform background points over the whole box.
    pub background: usize,
    /// Clump centers and the filament live in `[0, cluster_frac * side)`
    /// per axis. 1.0 spreads structure over the whole box; smaller values
    /// pile the mass into the low corner and leave the far corner a void —
    /// the adversarial case for volume-uniform decompositions.
    pub cluster_frac: f64,
    pub seed: u64,
}

impl ClusterSpec {
    /// Whole-box clustering with no filament or outliers: the shape the
    /// kernel-equivalence tests use.
    pub fn halos(
        side: f64,
        nclumps: usize,
        per_clump: usize,
        background: usize,
        seed: u64,
    ) -> Self {
        ClusterSpec {
            side,
            nclumps,
            per_clump,
            sigma_frac: 0.02,
            outlier_every: 0,
            filament: 0,
            background,
            cluster_frac: 1.0,
            seed,
        }
    }

    /// Corner-heavy corpus: clumps and filament confined to the low-corner
    /// octant, so a volume-uniform 8-block decomposition gives one rank
    /// several times its fair share while a particle-balanced one spreads
    /// them evenly. The background is dense enough that every void cell
    /// certifies within one block extent of ghosts under either scheme
    /// (the adaptive protocol cannot reach past the 1-ring).
    pub fn corner_heavy(side: f64, nclumps: usize, per_clump: usize, seed: u64) -> Self {
        ClusterSpec {
            side,
            nclumps,
            per_clump,
            sigma_frac: 0.015,
            outlier_every: 0,
            filament: nclumps * per_clump / 8,
            background: 2 * nclumps * per_clump,
            cluster_frac: 0.45,
            seed,
        }
    }

    pub fn total_points(&self) -> usize {
        self.nclumps * self.per_clump + self.filament + self.background
    }

    /// Generate the corpus: `(id, position)` with ids `0..n`, positions
    /// wrapped into `[0, side)^3`. Deterministic in the spec.
    pub fn generate(&self) -> Vec<(u64, Vec3)> {
        let side = self.side;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let sigma = side * self.sigma_frac;
        // Box-Muller; the rand shim has no normal distribution.
        let gauss = |rng: &mut ChaCha8Rng, sigma: f64| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let wrap = |p: Vec3| {
            Vec3::new(
                p.x.rem_euclid(side),
                p.y.rem_euclid(side),
                p.z.rem_euclid(side),
            )
        };
        let reach = self.cluster_frac * side;
        let mut pts = Vec::with_capacity(self.total_points());
        for _ in 0..self.nclumps {
            let c = Vec3::new(
                rng.gen_range(0.0..reach),
                rng.gen_range(0.0..reach),
                rng.gen_range(0.0..reach),
            );
            for i in 0..self.per_clump {
                let s = if self.outlier_every > 0 && (i + 1) % self.outlier_every == 0 {
                    sigma * 8.0
                } else {
                    sigma
                };
                let d = Vec3::new(gauss(&mut rng, s), gauss(&mut rng, s), gauss(&mut rng, s));
                pts.push(wrap(c + d));
            }
        }
        for _ in 0..self.filament {
            let t: f64 = rng.gen_range(0.0..1.0);
            let d = Vec3::new(
                gauss(&mut rng, sigma),
                gauss(&mut rng, sigma),
                gauss(&mut rng, sigma),
            );
            pts.push(wrap(Vec3::new(t * reach, t * reach, t * reach) + d));
        }
        for _ in 0..self.background {
            pts.push(Vec3::new(
                rng.gen_range(0.0..side),
                rng.gen_range(0.0..side),
                rng.gen_range(0.0..side),
            ));
        }
        pts.into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect()
    }
}

/// Convenience wrapper matching the historical test-local generators:
/// whole-box Gaussian clumps plus a uniform background.
pub fn clustered(
    side: f64,
    nclumps: usize,
    per_clump: usize,
    background: usize,
    seed: u64,
) -> Vec<(u64, Vec3)> {
    ClusterSpec::halos(side, nclumps, per_clump, background, seed).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_in_bounds() {
        let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), spec.total_points());
        assert_eq!(a, b, "same spec must generate the same corpus");
        for &(_, p) in &a {
            for v in [p.x, p.y, p.z] {
                assert!((0.0..16.0).contains(&v), "point {p:?} escaped the box");
            }
        }
        // Seed changes the corpus.
        let c = ClusterSpec::corner_heavy(16.0, 24, 40, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn corner_heavy_piles_mass_into_one_octant() {
        let spec = ClusterSpec::corner_heavy(16.0, 24, 40, 7);
        let pts = spec.generate();
        let low = pts
            .iter()
            .filter(|(_, p)| p.x < 8.0 && p.y < 8.0 && p.z < 8.0)
            .count();
        // A volume-uniform 2x2x2 decomposition would give this octant 1/8
        // of the mass; the clumps and filament pile >= 3x that fair share
        // there (the background is uniform, so it dilutes but cannot
        // equalize), which is what drives the >= 3.0 rank-imbalance gate.
        assert!(
            low * 8 >= pts.len() * 3,
            "low octant holds {low}/{} points",
            pts.len()
        );
    }
}
