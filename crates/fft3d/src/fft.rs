//! Iterative radix-2 Cooley–Tukey FFT with precomputed twiddle factors.

use crate::complex::Complex;

/// A reusable FFT plan for a fixed power-of-two length.
pub struct Fft {
    n: usize,
    /// Twiddles for the forward transform: `e^{-2πik/n}` for `k < n/2`.
    twiddles: Vec<Complex>,
}

impl Fft {
    /// Build a plan for length `n` (must be a power of two, `n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
        let twiddles = (0..n / 2)
            .map(|k| Complex::from_angle(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Fft { n, twiddles }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place transform. `inverse` selects the conjugate transform
    /// (WITHOUT the 1/n normalization; callers normalize once).
    pub fn transform(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length must match the plan");
        let n = self.n;
        if n <= 1 {
            return;
        }

        // Bit-reversal permutation.
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if i < j {
                data.swap(i, j);
            }
        }

        // Butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len; // stride into the twiddle table
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Naive O(n²) DFT used as the correctness oracle in tests.
    fn dft_naive(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    let theta = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += x * Complex::from_angle(theta);
                }
                acc
            })
            .collect()
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = Fft::new(12);
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let input: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut fast = input.clone();
            Fft::new(n).transform(&mut fast, false);
            let slow = dft_naive(&input, false);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).abs() < 1e-9 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn inverse_matches_naive_inverse() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 32;
        let input: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut fast = input.clone();
        Fft::new(n).transform(&mut fast, true);
        let slow = dft_naive(&input, true);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_then_inverse_is_identity_times_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let plan = Fft::new(n);
        let mut data = input.clone();
        plan.transform(&mut data, false);
        plan.transform(&mut data, true);
        for (a, b) in data.iter().zip(&input) {
            assert!((a.scale(1.0 / n as f64) - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let y: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let plan = Fft::new(n);
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.transform(&mut fx, false);
        plan.transform(&mut fy, false);
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let mut fsum = sum;
        plan.transform(&mut fsum, false);
        for i in 0..n {
            assert!((fsum[i] - (fx[i] + fy[i])).abs() < 1e-12);
        }
    }
}
