//! Serial particle-mesh stepper (kick–drift, symplectic Euler).
//!
//! The one-rank oracle of the distributed [`crate::Simulation`]: stepped
//! with [`crate::SimParams::a_at`] and [`crate::SimParams::da_at`], it gives
//! the simulation's particles bit for bit at any rank count. One gravity
//! step:
//!
//! 1. fixed-point CIC deposit of all particles → density contrast δ,
//! 2. FFT Poisson solve → potential φ (discrete Green's function),
//! 3. per-particle acceleration: CIC-interpolated centered difference of φ,
//! 4. kick `p += g · Δa/ȧ`, then drift `x += p · Δa/(a²ȧ)`.
//!
//! Using the same CIC weights ([`cic::stencil`]) for deposit and force
//! interpolation keeps the scheme momentum-conserving (no self-force).

use fft3d::Grid3;
use geometry::Vec3;

use crate::cic;
use crate::cosmology::Cosmology;
use crate::poisson;

/// Particle-mesh force solver on an `ng³` periodic grid (grid units).
#[derive(Debug, Clone, Copy)]
pub struct PmSolver {
    pub ng: usize,
    pub cosmo: Cosmology,
}

impl PmSolver {
    pub fn new(ng: usize, cosmo: Cosmology) -> Self {
        assert!(ng.is_power_of_two(), "PM grid must be a power of two");
        PmSolver { ng, cosmo }
    }

    /// Density-contrast grid from particle positions.
    pub fn density_contrast(&self, positions: &[Vec3]) -> Grid3<f64> {
        let dims = [self.ng; 3];
        let mut mass = Grid3::new(dims, 0);
        cic::deposit(&mut mass, positions.iter().copied());
        let mean = positions.len() as f64 / mass.len() as f64;
        Grid3::from_vec(dims, cic::density_contrast(mass.data(), mean))
    }

    /// Potential from a density-contrast grid at scale factor `a`.
    pub fn potential(&self, delta: &Grid3<f64>, a: f64) -> Grid3<f64> {
        poisson::solve_potential(delta, self.cosmo.poisson_factor(a))
    }

    /// Acceleration `-∇φ` at position `p`: centered difference of φ,
    /// interpolated with the deposit's CIC weights (equivalent to
    /// interpolating precomputed gradient grids, but without materializing
    /// them — per-particle work only).
    pub fn acceleration_at(phi: &Grid3<f64>, p: Vec3) -> Vec3 {
        let ng = phi.dims()[0];
        let (corner, [wx, wy, wz]) = cic::stencil(p);
        // wrapped planes corner−1 ..= corner+2 along each axis
        let [xs, ys, zs] = corner.map(|c| [-1, 0, 1, 2].map(|o| cic::wrap(c + o, ng)));
        let v = |a: usize, b: usize, c: usize| phi[(xs[a], ys[b], zs[c])];
        let mut acc = Vec3::ZERO;
        for (i, wi) in wx.into_iter().enumerate() {
            for (j, wj) in wy.into_iter().enumerate() {
                for (k, wk) in wz.into_iter().enumerate() {
                    let w = wi * wj * wk;
                    if w == 0 {
                        continue;
                    }
                    // exact: the weight has at most 42 significant bits
                    let w = w as f64 * (1.0 / cic::UNIT_MASS as f64);
                    let (i, j, k) = (i + 1, j + 1, k + 1);
                    acc.x -= w * 0.5 * (v(i + 1, j, k) - v(i - 1, j, k));
                    acc.y -= w * 0.5 * (v(i, j + 1, k) - v(i, j - 1, k));
                    acc.z -= w * 0.5 * (v(i, j, k + 1) - v(i, j, k - 1));
                }
            }
        }
        acc
    }

    /// Advance positions and momenta by one step `a → a + da` in place.
    pub fn step(&self, positions: &mut [Vec3], momenta: &mut [Vec3], a: f64, da: f64) {
        let delta = self.density_contrast(positions);
        let phi = self.potential(&delta, a);
        let kick = self.cosmo.kick_factor(a, da);
        let drift = self.cosmo.drift_factor(a + da, da);
        let ng = self.ng as f64;
        for (x, p) in positions.iter_mut().zip(momenta.iter_mut()) {
            let g = Self::acceleration_at(&phi, *x);
            *p += g * kick;
            *x += *p * drift;
            for d in 0..3 {
                x[d] = x[d].rem_euclid(ng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic::{zeldovich, IcParams};
    use crate::power::PowerSpectrum;

    fn lattice(ng: usize) -> Vec<Vec3> {
        (0..ng)
            .flat_map(|k| {
                (0..ng).flat_map(move |j| {
                    (0..ng).map(move |i| Vec3::new(i as f64, j as f64, k as f64))
                })
            })
            .collect()
    }

    #[test]
    fn uniform_lattice_is_a_fixed_point() {
        let ng = 8;
        let solver = PmSolver::new(ng, Cosmology::default());
        let mut pos = lattice(ng);
        let mut mom = vec![Vec3::ZERO; pos.len()];
        let orig = pos.clone();
        for _ in 0..5 {
            solver.step(&mut pos, &mut mom, 0.1, 0.01);
        }
        for (a, b) in pos.iter().zip(&orig) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let ic = zeldovich(
            &IcParams {
                np: 8,
                box_size: 8.0,
                seed: 3,
                delta_rms: 0.3,
                spectrum: PowerSpectrum::default(),
            },
            &Cosmology::default(),
            0.1,
        );
        let solver = PmSolver::new(8, Cosmology::default());
        let mut pos = ic.positions.clone();
        let mut mom = ic.momenta.clone();
        let total_before: Vec3 = mom.iter().fold(Vec3::ZERO, |a, &b| a + b);
        let mut a = 0.1;
        for _ in 0..10 {
            solver.step(&mut pos, &mut mom, a, 0.02);
            a += 0.02;
        }
        let total_after: Vec3 = mom.iter().fold(Vec3::ZERO, |a, &b| a + b);
        assert!(
            (total_after - total_before).norm() < 1e-9,
            "Δp = {}",
            (total_after - total_before).norm()
        );
    }

    #[test]
    fn two_clouds_attract_each_other() {
        // Two particles along x: each must be pulled toward the other.
        let ng = 16;
        let solver = PmSolver::new(ng, Cosmology::default());
        let mut pos = vec![Vec3::new(5.0, 8.0, 8.0), Vec3::new(11.0, 8.0, 8.0)];
        let mut mom = vec![Vec3::ZERO; 2];
        solver.step(&mut pos, &mut mom, 0.5, 0.001);
        assert!(mom[0].x > 0.0, "left particle pulled right: {}", mom[0].x);
        assert!(mom[1].x < 0.0, "right particle pulled left: {}", mom[1].x);
        assert!((mom[0].x + mom[1].x).abs() < 1e-12, "antisymmetric forces");
        assert!(mom[0].y.abs() < 1e-12 && mom[0].z.abs() < 1e-12);
    }

    #[test]
    fn clustering_grows_density_variance() {
        let cosmo = Cosmology::default();
        let ic = zeldovich(
            &IcParams {
                np: 16,
                box_size: 16.0,
                seed: 11,
                delta_rms: 0.2,
                spectrum: PowerSpectrum::default(),
            },
            &cosmo,
            0.1,
        );
        let solver = PmSolver::new(16, cosmo);
        let mut pos = ic.positions.clone();
        let mut mom = ic.momenta.clone();
        let var = |p: &[Vec3]| {
            let d = solver.density_contrast(p);
            d.data().iter().map(|v| v * v).sum::<f64>() / d.len() as f64
        };
        let v0 = var(&pos);
        let mut a = 0.1;
        let da = (1.0 - a) / 40.0;
        for _ in 0..40 {
            solver.step(&mut pos, &mut mom, a, da);
            a += da;
        }
        let v1 = var(&pos);
        assert!(
            v1 > 2.0 * v0,
            "density variance should grow: {v0:.4} -> {v1:.4}"
        );
    }

    #[test]
    fn positions_remain_in_box() {
        let ic = zeldovich(
            &IcParams {
                np: 8,
                box_size: 8.0,
                seed: 9,
                delta_rms: 0.5,
                spectrum: PowerSpectrum::default(),
            },
            &Cosmology::default(),
            0.1,
        );
        let solver = PmSolver::new(8, Cosmology::default());
        let mut pos = ic.positions.clone();
        let mut mom = ic.momenta.clone();
        let mut a = 0.1;
        for _ in 0..30 {
            solver.step(&mut pos, &mut mom, a, 0.03);
            a += 0.03;
        }
        for p in &pos {
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] < 8.0, "{p}");
            }
        }
    }
}
