//! FFT-based Poisson solver on the periodic PM grid.
//!
//! Solves `∇²φ = rhs_factor · δ` with the *discrete* 7-point Laplacian
//! Green's function: the eigenvalue of the standard second-difference
//! operator for mode `k` is `-4 Σ_d sin²(k_d/2)` (grid spacing 1), so
//!
//! ```text
//! φ(k) = - rhs_factor · δ(k) / (4 Σ_d sin²(π f_d / ng))
//! ```
//!
//! Using the discrete rather than continuum Green's function makes the
//! spectral solve exactly consistent with the finite-difference gradient
//! used for forces.

use fft3d::{fft3_forward, freq, transform_axis, Complex, Grid3};

/// The discrete Green's function of an `ng³` grid, scaled by `rhs_factor`.
/// The serial and the slab solve both apply it, so they agree bit for bit.
pub(crate) struct Green {
    /// `sin²(π f / ng)` per bin index.
    sin2: Vec<f64>,
    rhs_factor: f64,
}

impl Green {
    pub(crate) fn new(ng: usize, rhs_factor: f64) -> Self {
        let pi = std::f64::consts::PI;
        let sin2 = (0..ng)
            .map(|i| {
                let t = (pi * freq(i, ng) as f64 / ng as f64).sin();
                t * t
            })
            .collect();
        Green { sin2, rhs_factor }
    }

    /// `φ(k)` of bin `(i, j, k)` from the transformed source `v`; the zero
    /// mode maps to zero (the mean potential is free).
    #[inline]
    pub(crate) fn apply(&self, v: Complex, i: usize, j: usize, k: usize) -> Complex {
        let denom = 4.0 * (self.sin2[i] + self.sin2[j] + self.sin2[k]);
        if denom == 0.0 {
            Complex::ZERO
        } else {
            v.scale(-self.rhs_factor / denom)
        }
    }
}

/// Solve the Poisson equation for the density contrast `delta`, returning
/// the potential φ. `rhs_factor` is usually
/// [`crate::Cosmology::poisson_factor`]. The inverse runs in the slab
/// solver's axis order — z, then x and y — so this serial solve is the
/// bit-exact oracle of [`crate::slabfft::solve_potential_slab`].
pub fn solve_potential(delta: &Grid3<f64>, rhs_factor: f64) -> Grid3<f64> {
    let dims @ [ng, _, _] = delta.dims();
    let source = delta.data().iter().map(|&v| Complex::new(v, 0.0)).collect();
    let mut f = Grid3::from_vec(dims, source);
    fft3_forward(&mut f);

    let green = Green::new(ng, rhs_factor);
    for k in 0..ng {
        for j in 0..ng {
            for i in 0..ng {
                f[(i, j, k)] = green.apply(f[(i, j, k)], i, j, k);
            }
        }
    }

    for axis in [2, 0, 1] {
        transform_axis(f.data_mut(), dims, axis, true);
    }
    let scale = 1.0 / f.len() as f64;
    Grid3::from_vec(dims, f.data().iter().map(|c| c.re * scale).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceleration grids `g = -∇φ` via centered differences (periodic).
    fn gradient_force(phi: &Grid3<f64>) -> [Grid3<f64>; 3] {
        let [ng, _, _] = phi.dims();
        let mut gx = Grid3::new([ng, ng, ng], 0.0);
        let mut gy = Grid3::new([ng, ng, ng], 0.0);
        let mut gz = Grid3::new([ng, ng, ng], 0.0);
        for k in 0..ng {
            for j in 0..ng {
                for i in 0..ng {
                    let ii = i as isize;
                    let jj = j as isize;
                    let kk = k as isize;
                    let d = |a: usize, b: usize| phi.data()[a] - phi.data()[b];
                    gx[(i, j, k)] = -0.5
                        * d(
                            phi.idx_wrapped(ii + 1, jj, kk),
                            phi.idx_wrapped(ii - 1, jj, kk),
                        );
                    gy[(i, j, k)] = -0.5
                        * d(
                            phi.idx_wrapped(ii, jj + 1, kk),
                            phi.idx_wrapped(ii, jj - 1, kk),
                        );
                    gz[(i, j, k)] = -0.5
                        * d(
                            phi.idx_wrapped(ii, jj, kk + 1),
                            phi.idx_wrapped(ii, jj, kk - 1),
                        );
                }
            }
        }
        [gx, gy, gz]
    }

    /// Apply the discrete 7-point Laplacian.
    fn laplacian(phi: &Grid3<f64>) -> Grid3<f64> {
        let [ng, _, _] = phi.dims();
        let mut out = Grid3::new([ng, ng, ng], 0.0);
        for k in 0..ng {
            for j in 0..ng {
                for i in 0..ng {
                    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                    let p = |a: isize, b: isize, c: isize| phi.data()[phi.idx_wrapped(a, b, c)];
                    out[(i, j, k)] = p(ii + 1, jj, kk)
                        + p(ii - 1, jj, kk)
                        + p(ii, jj + 1, kk)
                        + p(ii, jj - 1, kk)
                        + p(ii, jj, kk + 1)
                        + p(ii, jj, kk - 1)
                        - 6.0 * p(ii, jj, kk);
                }
            }
        }
        out
    }

    #[test]
    fn solution_satisfies_discrete_poisson() {
        // random zero-mean source
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let ng = 8;
        let mut delta = Grid3::new([ng, ng, ng], 0.0);
        for v in delta.data_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mean: f64 = delta.data().iter().sum::<f64>() / delta.len() as f64;
        for v in delta.data_mut() {
            *v -= mean;
        }
        let factor = 1.5;
        let phi = solve_potential(&delta, factor);
        let lap = laplacian(&phi);
        for (l, d) in lap.data().iter().zip(delta.data()) {
            assert!((l - factor * d).abs() < 1e-9, "{l} vs {}", factor * d);
        }
    }

    #[test]
    fn uniform_density_gives_zero_force() {
        let ng = 8;
        let delta = Grid3::new([ng, ng, ng], 0.0);
        let phi = solve_potential(&delta, 1.5);
        let [gx, gy, gz] = gradient_force(&phi);
        for g in [&gx, &gy, &gz] {
            for v in g.data() {
                assert!(v.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn point_mass_attracts_from_all_sides() {
        // Overdensity at the center: force on either side along x points
        // toward the center.
        let ng = 16;
        let mut delta = Grid3::new([ng, ng, ng], -1.0 / (ng * ng * ng - 1) as f64);
        delta[(8, 8, 8)] = 1.0;
        let phi = solve_potential(&delta, 1.5);
        let [gx, _, _] = gradient_force(&phi);
        assert!(
            gx[(10, 8, 8)] < 0.0,
            "right of mass pulls -x: {}",
            gx[(10, 8, 8)]
        );
        assert!(
            gx[(6, 8, 8)] > 0.0,
            "left of mass pulls +x: {}",
            gx[(6, 8, 8)]
        );
        // symmetric magnitudes
        assert!((gx[(10, 8, 8)] + gx[(6, 8, 8)]).abs() < 1e-10);
        // force decays with distance
        assert!(gx[(10, 8, 8)].abs() > gx[(13, 8, 8)].abs());
    }

    #[test]
    fn forces_sum_to_zero() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let ng = 8;
        let mut delta = Grid3::new([ng, ng, ng], 0.0);
        for v in delta.data_mut() {
            *v = rng.gen_range(-0.5..0.5);
        }
        let phi = solve_potential(&delta, 1.5);
        for g in gradient_force(&phi) {
            let total: f64 = g.data().iter().sum();
            assert!(total.abs() < 1e-9);
        }
    }
}
