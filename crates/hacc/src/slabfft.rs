//! Distributed slab-decomposed FFT Poisson solver — the one gravity solve.
//!
//! HACC's spectral solver distributes the PM grid across ranks; so does
//! this module, with the classic slab algorithm:
//!
//! 1. each rank owns a contiguous range of z-planes (a *z-slab*,
//!    [`slab_range`]); [`reduce_scatter_mass`] sums every rank's
//!    fixed-point deposit into the slabs,
//! 2. forward-FFT the x and y lines of the slab locally,
//! 3. transpose (personalized all-to-all) so each rank owns a contiguous
//!    range of x-planes with *all* z — then FFT the z lines locally,
//! 4. apply the discrete Green's function (each rank knows its global x
//!    range),
//! 5. inverse z FFT, transpose back, inverse x/y FFT, normalize.
//!
//! The result is the potential, again as z-slabs. It is bit-identical to
//! the serial [`crate::poisson::solve_potential`] at every rank count: the
//! same line transforms ([`fft3d::transform_axis`]) and Green's function
//! run along each axis, and the serial inverse takes the axes in this
//! order (z, then x and y).

use diy::comm::World;
use fft3d::{transform_axis, Complex};

use crate::poisson::Green;

/// Contiguous z-plane range owned by `rank` of `nranks` for an `ng` grid.
pub fn slab_range(ng: usize, nranks: usize, rank: usize) -> std::ops::Range<usize> {
    let lo = rank * ng / nranks;
    let hi = (rank + 1) * ng / nranks;
    lo..hi
}

/// Sum every rank's full `ng³` fixed-point mass grid into z-slabs: one
/// all-to-all sends each rank the planes of its [`slab_range`], and the
/// receiver adds the integers (in any order — the sum is exact). Returns
/// this rank's slab of the global mass. Collective.
pub fn reduce_scatter_mass(world: &mut World, mass: &[u64], ng: usize) -> Vec<u64> {
    let nranks = world.nranks();
    let plane = ng * ng;
    assert_eq!(mass.len(), plane * ng);
    let outgoing = (0..nranks)
        .map(|dest| {
            let zr = slab_range(ng, nranks, dest);
            mass[plane * zr.start..plane * zr.end]
                .iter()
                .flat_map(|m| m.to_le_bytes())
                .collect()
        })
        .collect();
    let zr = slab_range(ng, nranks, world.rank());
    let mut slab = vec![0u64; plane * zr.len()];
    for buf in world.all_to_all(outgoing) {
        for (sum, bytes) in slab.iter_mut().zip(buf.chunks_exact(8)) {
            *sum += u64::from_le_bytes(bytes.try_into().unwrap());
        }
    }
    slab
}

/// A z-slab of complex grid data: planes `zrange` of an `ng³` grid, stored
/// x-fastest (`idx = x + ng*(y + ng*(z - z0))`).
struct Slab {
    ng: usize,
    data: Vec<Complex>,
}

impl Slab {
    fn nz(&self) -> usize {
        self.data.len() / (self.ng * self.ng)
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, zlocal: usize) -> usize {
        x + self.ng * (y + self.ng * zlocal)
    }
}

/// An x-slab: planes `xrange` with all y, z (`idx = (x-x0) + nx*(y + ng*z)`).
struct XSlab {
    ng: usize,
    x0: usize,
    nx: usize,
    data: Vec<Complex>,
}

impl XSlab {
    #[inline]
    fn idx(&self, xlocal: usize, y: usize, z: usize) -> usize {
        xlocal + self.nx * (y + self.ng * z)
    }
}

/// Transpose z-slabs to x-slabs (collective).
fn transpose_forward(world: &mut World, slab: &Slab) -> XSlab {
    let ng = slab.ng;
    let nranks = world.nranks();
    // pack one buffer per destination: all (x in dest range, y, local z)
    let outgoing: Vec<Vec<u8>> = (0..nranks)
        .map(|dest| {
            let xr = slab_range(ng, nranks, dest);
            let mut buf = Vec::with_capacity(xr.len() * ng * slab.nz() * 16);
            for zl in 0..slab.nz() {
                for y in 0..ng {
                    for x in xr.clone() {
                        let c = slab.data[slab.idx(x, y, zl)];
                        buf.extend_from_slice(&c.re.to_le_bytes());
                        buf.extend_from_slice(&c.im.to_le_bytes());
                    }
                }
            }
            buf
        })
        .collect();
    let incoming = world.all_to_all(outgoing);

    let xr = slab_range(ng, nranks, world.rank());
    let mut xs = XSlab {
        ng,
        x0: xr.start,
        nx: xr.len(),
        data: vec![Complex::ZERO; xr.len() * ng * ng],
    };
    for (src, buf) in incoming.iter().enumerate() {
        let zr = slab_range(ng, nranks, src);
        let mut off = 0;
        for z in zr {
            for y in 0..ng {
                for xl in 0..xs.nx {
                    let re = f64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    let im = f64::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap());
                    off += 16;
                    let i = xs.idx(xl, y, z);
                    xs.data[i] = Complex::new(re, im);
                }
            }
        }
    }
    xs
}

/// Transpose x-slabs back to z-slabs (collective).
fn transpose_backward(world: &mut World, xs: &XSlab) -> Slab {
    let ng = xs.ng;
    let nranks = world.nranks();
    let outgoing: Vec<Vec<u8>> = (0..nranks)
        .map(|dest| {
            let zr = slab_range(ng, nranks, dest);
            let mut buf = Vec::with_capacity(zr.len() * ng * xs.nx * 16);
            for z in zr {
                for y in 0..ng {
                    for xl in 0..xs.nx {
                        let c = xs.data[xs.idx(xl, y, z)];
                        buf.extend_from_slice(&c.re.to_le_bytes());
                        buf.extend_from_slice(&c.im.to_le_bytes());
                    }
                }
            }
            buf
        })
        .collect();
    let incoming = world.all_to_all(outgoing);

    let zr = slab_range(ng, nranks, world.rank());
    let mut slab = Slab {
        ng,
        data: vec![Complex::ZERO; ng * ng * zr.len()],
    };
    for (src, buf) in incoming.iter().enumerate() {
        let xr = slab_range(ng, nranks, src);
        let mut off = 0;
        for zl in 0..slab.nz() {
            for y in 0..ng {
                for x in xr.clone() {
                    let re = f64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    let im = f64::from_le_bytes(buf[off + 8..off + 16].try_into().unwrap());
                    off += 16;
                    let i = slab.idx(x, y, zl);
                    slab.data[i] = Complex::new(re, im);
                }
            }
        }
    }
    slab
}

/// Distributed Poisson solve: input is this rank's z-slab of the (real)
/// density contrast; output is the same slab of the potential.
/// `rhs_factor` as in [`crate::poisson::solve_potential`]. Collective.
pub fn solve_potential_slab(
    world: &mut World,
    delta_slab: &[f64],
    ng: usize,
    rhs_factor: f64,
) -> Vec<f64> {
    let zr = slab_range(ng, world.nranks(), world.rank());
    assert_eq!(delta_slab.len(), ng * ng * zr.len());
    let mut slab = Slab {
        ng,
        data: delta_slab.iter().map(|&v| Complex::new(v, 0.0)).collect(),
    };

    // forward: xy local, transpose, z local
    let nz = slab.nz();
    transform_axis(&mut slab.data, [ng, ng, nz], 0, false);
    transform_axis(&mut slab.data, [ng, ng, nz], 1, false);
    let mut xs = transpose_forward(world, &slab);
    transform_axis(&mut xs.data, [xs.nx, ng, ng], 2, false);

    // Green's function on the distributed spectrum
    let green = Green::new(ng, rhs_factor);
    for z in 0..ng {
        for y in 0..ng {
            for xl in 0..xs.nx {
                let i = xs.idx(xl, y, z);
                xs.data[i] = green.apply(xs.data[i], xs.x0 + xl, y, z);
            }
        }
    }

    // inverse: z local, transpose back, xy local, normalize by 1/N³
    transform_axis(&mut xs.data, [xs.nx, ng, ng], 2, true);
    let mut slab = transpose_backward(world, &xs);
    transform_axis(&mut slab.data, [ng, ng, nz], 0, true);
    transform_axis(&mut slab.data, [ng, ng, nz], 1, true);
    let scale = 1.0 / (ng * ng * ng) as f64;
    slab.data.iter().map(|c| c.re * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::solve_potential;
    use diy::comm::Runtime;
    use fft3d::Grid3;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_delta(ng: usize, seed: u64) -> Grid3<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = Grid3::new([ng, ng, ng], 0.0);
        for v in g.data_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mean: f64 = g.data().iter().sum::<f64>() / g.len() as f64;
        for v in g.data_mut() {
            *v -= mean;
        }
        g
    }

    #[test]
    fn slab_ranges_cover_grid() {
        for (ng, nranks) in [(8usize, 1usize), (8, 2), (8, 3), (16, 5), (16, 16)] {
            let mut total = 0;
            let mut prev_end = 0;
            for r in 0..nranks {
                let range = slab_range(ng, nranks, r);
                assert_eq!(range.start, prev_end);
                prev_end = range.end;
                total += range.len();
            }
            assert_eq!(total, ng, "ng={ng} nranks={nranks}");
        }
    }

    #[test]
    fn distributed_solve_matches_serial_exactly() {
        let ng = 8;
        let delta = random_delta(ng, 3);
        let factor = 1.5;
        let serial = solve_potential(&delta, factor);

        for nranks in [1usize, 2, 3, 4] {
            let delta_ref = &delta;
            let results = Runtime::run(nranks, move |world| {
                let zr = slab_range(ng, world.nranks(), world.rank());
                let local = &delta_ref.data()[ng * ng * zr.start..ng * ng * zr.end];
                (zr.start, solve_potential_slab(world, local, ng, factor))
            });
            for (z0, phi_slab) in results {
                let expect = &serial.data()[ng * ng * z0..ng * ng * z0 + phi_slab.len()];
                for (i, (got, want)) in phi_slab.iter().zip(expect).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "nranks={nranks} cell {}: {got} vs {want}",
                        ng * ng * z0 + i
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_sums_every_rank_into_its_slab() {
        let ng = 4;
        let grid = |rank: usize| -> Vec<u64> {
            (0..ng * ng * ng)
                .map(|i| (i as u64 + 1) << (8 * rank))
                .collect()
        };
        let slabs = Runtime::run(3, |world| {
            reduce_scatter_mass(world, &grid(world.rank()), ng)
        });
        let total: Vec<u64> = (0..ng * ng * ng)
            .map(|i| (0..3).map(|r| grid(r)[i]).sum())
            .collect();
        assert_eq!(slabs.concat(), total);
    }

    #[test]
    fn transposes_are_inverses() {
        let ng = 8;
        Runtime::run(3, |world| {
            let zr = slab_range(ng, world.nranks(), world.rank());
            // unique value per global cell: its x-fastest index
            let first = ng * ng * zr.start;
            let slab = Slab {
                ng,
                data: (first..first + ng * ng * zr.len())
                    .map(|gid| Complex::new(gid as f64, -(gid as f64)))
                    .collect(),
            };
            let orig = slab.data.clone();
            let xs = transpose_forward(world, &slab);
            // check x-slab contents
            for xl in 0..xs.nx {
                for y in 0..ng {
                    for z in 0..ng {
                        let gid = (xs.x0 + xl) + ng * (y + ng * z);
                        assert_eq!(xs.data[xs.idx(xl, y, z)].re, gid as f64);
                    }
                }
            }
            let back = transpose_backward(world, &xs);
            assert_eq!(back.data, orig);
        });
    }
}
