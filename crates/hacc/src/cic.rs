//! Cloud-in-cell (CIC) mass deposit in fixed point, and its weights.
//!
//! Positions are in grid units (`[0, ng)` per dimension, cell size 1) with
//! periodic wrapping. Each axis offset `p − floor(p)` is rounded to the
//! nearest multiple of 2⁻¹⁴, so a particle's eight weights are integer
//! products that sum to exactly [`UNIT_MASS`] = 2⁴². The deposit
//! adds them into a `u64` grid: integer sums do not depend on the order
//! particles are added in, so the density — and with it the potential and
//! every particle after a step — has the same bits at any rank count and
//! block layout.
//!
//! Overflow bound: a cell holds at most `N · 2⁴²` (every particle in one
//! cell). For `np ≤ 128` particles per dimension, `N ≤ 2²¹`, so a cell
//! stays ≤ 2⁶³ and the `u64` sum cannot overflow. Nothing checks this at
//! run time.
//!
//! Force interpolation ([`crate::PmSolver::acceleration_at`]) uses the same
//! weights as `f64` (exact: at most 42 significant bits). The shared kernel
//! keeps the scheme momentum-conserving: a particle exerts no force on
//! itself and pairwise forces are antisymmetric.

use fft3d::Grid3;
use geometry::Vec3;

/// Bits of the per-axis weight quantum (weights are multiples of 2⁻¹⁴).
const QUANTUM_BITS: u32 = 14;

/// One axis's full weight, 2¹⁴.
const AXIS_ONE: u64 = 1 << QUANTUM_BITS;

/// A particle's deposited mass, 2⁴² (the product of three axis weights).
pub const UNIT_MASS: u64 = 1 << (3 * QUANTUM_BITS);

/// The CIC stencil at `p`: its lower corner cell (unwrapped) and, per
/// axis, the fixed-point weights `[1 − t, t]` of the lower and the upper
/// cell in units of 2⁻¹⁴. A cell's weight is the product of its three axis
/// weights; the eight products sum to [`UNIT_MASS`].
#[inline]
pub fn stencil(p: Vec3) -> ([isize; 3], [[u64; 2]; 3]) {
    let mut corner = [0isize; 3];
    let mut weights = [[0u64; 2]; 3];
    for d in 0..3 {
        let lo = p[d].floor();
        let t = ((p[d] - lo) * AXIS_ONE as f64 + 0.5) as u64;
        corner[d] = lo as isize;
        weights[d] = [AXIS_ONE - t, t];
    }
    (corner, weights)
}

/// `c` wrapped into `[0, n)`.
#[inline]
pub(crate) fn wrap(c: isize, n: usize) -> usize {
    c.rem_euclid(n as isize) as usize
}

/// Deposit unit-mass particles onto an `ng³` fixed-point mass grid (adds
/// to `mass`; each particle adds [`UNIT_MASS`]).
pub fn deposit(mass: &mut Grid3<u64>, positions: impl IntoIterator<Item = Vec3>) {
    let ng = mass.dims()[0];
    for p in positions {
        let (corner, [wx, wy, wz]) = stencil(p);
        let [xs, ys, zs] = corner.map(|c| [wrap(c, ng), wrap(c + 1, ng)]);
        for (z, wz) in zs.into_iter().zip(wz) {
            for (y, wy) in ys.into_iter().zip(wy) {
                for (x, wx) in xs.into_iter().zip(wx) {
                    mass[(x, y, z)] += wx * wy * wz;
                }
            }
        }
    }
}

/// Density contrast `δ = m/m̄ − 1` of fixed-point cell masses, where
/// `mean` is the mean number of particles per cell.
pub fn density_contrast(mass: &[u64], mean: f64) -> Vec<f64> {
    let unit = mean * UNIT_MASS as f64;
    mass.iter().map(|&m| m as f64 / unit - 1.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deposited(ng: usize, pos: &[Vec3]) -> Grid3<u64> {
        let mut mass = Grid3::new([ng, ng, ng], 0);
        deposit(&mut mass, pos.iter().copied());
        mass
    }

    #[test]
    fn deposit_conserves_mass() {
        let pos = vec![
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(3.2, 4.7, 1.1),
            Vec3::new(7.9, 7.9, 7.9), // wraps
            Vec3::new(0.0, 0.0, 0.0), // exactly on a node
        ];
        let mass = deposited(8, &pos);
        assert_eq!(mass.data().iter().sum::<u64>(), 4 * UNIT_MASS);
    }

    #[test]
    fn particle_on_node_deposits_to_single_cell() {
        let mass = deposited(4, &[Vec3::new(2.0, 3.0, 1.0)]);
        assert_eq!(mass[(2, 3, 1)], UNIT_MASS);
        assert_eq!(mass.data().iter().sum::<u64>(), UNIT_MASS);
    }

    #[test]
    fn particle_at_cell_center_splits_evenly() {
        let mass = deposited(4, &[Vec3::splat(1.5)]);
        for di in 0..2 {
            for dj in 0..2 {
                for dk in 0..2 {
                    assert_eq!(mass[(1 + di, 1 + dj, 1 + dk)], UNIT_MASS / 8);
                }
            }
        }
    }

    #[test]
    fn deposit_is_independent_of_particle_order() {
        let pos: Vec<Vec3> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.618_033_988_7;
                Vec3::new((t * 7.3) % 8.0, (t * 3.1) % 8.0, (t * 5.7 + 0.3) % 8.0)
            })
            .collect();
        let mut reversed = pos.clone();
        reversed.reverse();
        assert_eq!(deposited(8, &pos), deposited(8, &reversed));
    }

    #[test]
    fn density_contrast_of_uniform_lattice_is_zero() {
        let ng = 4;
        let pos: Vec<Vec3> = (0..ng)
            .flat_map(|i| {
                (0..ng).flat_map(move |j| {
                    (0..ng).map(move |k| Vec3::new(i as f64, j as f64, k as f64))
                })
            })
            .collect();
        let mass = deposited(ng, &pos);
        for v in density_contrast(mass.data(), 1.0) {
            assert_eq!(v, 0.0);
        }
    }
}
