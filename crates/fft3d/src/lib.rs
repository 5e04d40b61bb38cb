//! Minimal 3D FFT for the particle-mesh Poisson solver.
//!
//! HACC's spectral solver needs nothing more than forward/inverse complex
//! transforms on power-of-two grids, so that is exactly what this crate
//! provides: an iterative radix-2 Cooley–Tukey FFT ([`Fft`]) applied along
//! each axis of a [`Grid3`]. Written from scratch (no external FFT crate)
//! and validated against a naive O(n²) DFT.

pub mod complex;
pub mod fft;
pub mod grid;

pub use complex::Complex;
pub use fft::Fft;
pub use grid::Grid3;

/// Forward 3D FFT in place (no normalization).
pub fn fft3_forward(grid: &mut Grid3<Complex>) {
    transform3(grid, false);
}

/// Inverse 3D FFT in place, normalized by 1/N³ so
/// `fft3_inverse(fft3_forward(x)) == x`.
pub fn fft3_inverse(grid: &mut Grid3<Complex>) {
    transform3(grid, true);
    let scale = 1.0 / grid.len() as f64;
    for v in grid.data_mut() {
        *v = *v * scale;
    }
}

fn transform3(grid: &mut Grid3<Complex>, inverse: bool) {
    let dims = grid.dims();
    for axis in 0..3 {
        transform_axis(grid.data_mut(), dims, axis, inverse);
    }
}

/// Transform every line along `axis` of an x-fastest `dims` array in place
/// (no normalization). Lines are independent, so a 3D transform gives the
/// same bits whatever the axis order within one direction, and a slab of a
/// grid transforms its lines exactly as the whole grid would.
pub fn transform_axis(data: &mut [Complex], dims: [usize; 3], axis: usize, inverse: bool) {
    debug_assert_eq!(data.len(), dims.iter().product::<usize>());
    if data.is_empty() {
        return;
    }
    let n = dims[axis];
    let stride: usize = dims[..axis].iter().product();
    let plan = Fft::new(n);
    if stride == 1 {
        for line in data.chunks_exact_mut(n) {
            plan.transform(line, inverse);
        }
        return;
    }
    let mut line = vec![Complex::ZERO; n];
    for outer in (0..data.len()).step_by(n * stride) {
        for base in outer..outer + stride {
            for (m, slot) in line.iter_mut().enumerate() {
                *slot = data[base + m * stride];
            }
            plan.transform(&mut line, inverse);
            for (m, &v) in line.iter().enumerate() {
                data[base + m * stride] = v;
            }
        }
    }
}

/// Signed integer frequency for bin `i` of an `n`-point transform:
/// `0, 1, …, n/2, -(n/2-1), …, -1`.
#[inline]
pub fn freq(i: usize, n: usize) -> i64 {
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_grid(n: usize, seed: u64) -> Grid3<Complex> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = Grid3::new([n, n, n], Complex::ZERO);
        for v in g.data_mut() {
            *v = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        }
        g
    }

    #[test]
    fn roundtrip_recovers_input() {
        let orig = random_grid(8, 3);
        let mut g = orig.clone();
        fft3_forward(&mut g);
        fft3_inverse(&mut g);
        for (a, b) in g.data().iter().zip(orig.data()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn delta_function_transforms_to_constant() {
        let mut g = Grid3::new([4, 4, 4], Complex::ZERO);
        g[(0, 0, 0)] = Complex::new(1.0, 0.0);
        fft3_forward(&mut g);
        for v in g.data() {
            assert!((*v - Complex::new(1.0, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn plane_wave_transforms_to_delta() {
        // e^{2πi·kx·x/n} concentrates all power in bin (kx, 0, 0).
        let n = 8;
        let kx = 3;
        let mut g = Grid3::new([n, n, n], Complex::ZERO);
        for i in 0..n {
            let phase = 2.0 * std::f64::consts::PI * (kx * i) as f64 / n as f64;
            let v = Complex::new(phase.cos(), phase.sin());
            for j in 0..n {
                for k in 0..n {
                    g[(i, j, k)] = v;
                }
            }
        }
        fft3_forward(&mut g);
        let total = (n * n * n) as f64;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let expect = if (i, j, k) == (kx, 0, 0) { total } else { 0.0 };
                    assert!(
                        (g[(i, j, k)] - Complex::new(expect, 0.0)).abs() < 1e-9,
                        "bin ({i},{j},{k}) = {:?}",
                        g[(i, j, k)]
                    );
                }
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let orig = random_grid(8, 11);
        let mut g = orig.clone();
        fft3_forward(&mut g);
        let spatial: f64 = orig.data().iter().map(|v| v.norm2()).sum();
        let spectral: f64 = g.data().iter().map(|v| v.norm2()).sum();
        assert!((spectral / g.len() as f64 - spatial).abs() < 1e-9 * spatial.max(1.0));
    }

    #[test]
    fn real_input_has_hermitian_spectrum() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 8;
        let mut g = Grid3::new([n, n, n], Complex::ZERO);
        for v in g.data_mut() {
            *v = Complex::new(rng.gen_range(-1.0..1.0), 0.0);
        }
        fft3_forward(&mut g);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let conj_bin = g[((n - i) % n, (n - j) % n, (n - k) % n)];
                    assert!((g[(i, j, k)] - conj_bin.conj()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn freq_layout() {
        assert_eq!(freq(0, 8), 0);
        assert_eq!(freq(1, 8), 1);
        assert_eq!(freq(4, 8), 4);
        assert_eq!(freq(5, 8), -3);
        assert_eq!(freq(7, 8), -1);
    }
}
