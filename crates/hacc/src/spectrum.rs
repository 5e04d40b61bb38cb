//! Matter power spectrum estimator.
//!
//! The paper motivates HACC's scale by the need to predict "the matter
//! density fluctuation power spectrum" (§III-A); this module measures it
//! from the particles: the simulation's CIC deposit → FFT → shell-average
//! `|δ(k)|²`, with the standard CIC window deconvolution. Test-only code:
//! it is the oracle that the initial conditions realize the requested
//! spectrum shape and that nonlinear power grows over the run.

use fft3d::{fft3_forward, freq, Complex, Grid3};
use geometry::Vec3;

use crate::cosmology::Cosmology;
use crate::stepper::PmSolver;

/// One shell of the measured spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumBin {
    /// Mean wavenumber of the shell (h/Mpc).
    pub k: f64,
    /// Shell-averaged power (Mpc/h)³.
    pub power: f64,
    /// Number of modes in the shell.
    pub modes: u64,
}

/// Measure `P(k)` of unit-mass particles in a periodic box.
///
/// `ng` is the FFT mesh (power of two), `box_size` the physical box edge
/// in Mpc/h. Positions must be in grid units (`[0, ng)`), as used by the
/// simulation. Returns bins of width `2π/box_size` starting at the
/// fundamental mode.
pub fn power_spectrum(positions: &[Vec3], ng: usize, box_size: f64) -> Vec<SpectrumBin> {
    let delta = PmSolver::new(ng, Cosmology::default()).density_contrast(positions);
    let source = delta.data().iter().map(|&v| Complex::new(v, 0.0)).collect();
    let mut f = Grid3::from_vec([ng; 3], source);
    fft3_forward(&mut f);

    let kf = 2.0 * std::f64::consts::PI / box_size; // fundamental mode
    let volume = box_size * box_size * box_size;
    let n3 = (ng * ng * ng) as f64;
    let nbins = ng / 2;
    let mut sums = vec![0.0f64; nbins];
    let mut ksum = vec![0.0f64; nbins];
    let mut counts = vec![0u64; nbins];

    let pi = std::f64::consts::PI;
    for kz in 0..ng {
        for ky in 0..ng {
            for kx in 0..ng {
                if (kx, ky, kz) == (0, 0, 0) {
                    continue;
                }
                let fx = freq(kx, ng) as f64;
                let fy = freq(ky, ng) as f64;
                let fz = freq(kz, ng) as f64;
                let kmag_int = (fx * fx + fy * fy + fz * fz).sqrt();
                let bin = (kmag_int - 0.5).round() as usize;
                if bin >= nbins {
                    continue;
                }
                // CIC window: W(k) = Π sinc²(π f_d / ng); deconvolve |δ|²/W²
                let sinc = |fd: f64| {
                    let x = pi * fd / ng as f64;
                    if x.abs() < 1e-12 {
                        1.0
                    } else {
                        x.sin() / x
                    }
                };
                let w = (sinc(fx) * sinc(fy) * sinc(fz)).powi(2);
                let p = f[(kx, ky, kz)].norm2() / (n3 * n3) * volume / (w * w);
                sums[bin] += p;
                ksum[bin] += kmag_int * kf;
                counts[bin] += 1;
            }
        }
    }

    (0..nbins)
        .filter(|&b| counts[b] > 0)
        .map(|b| SpectrumBin {
            k: ksum[b] / counts[b] as f64,
            power: sums[b] / counts[b] as f64,
            modes: counts[b],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic::{zeldovich, IcParams};
    use crate::power::PowerSpectrum;

    fn lattice(ng: usize) -> Vec<Vec3> {
        (0..ng * ng * ng)
            .map(|i| {
                Vec3::new(
                    (i % ng) as f64,
                    ((i / ng) % ng) as f64,
                    (i / (ng * ng)) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn uniform_lattice_has_no_power() {
        let ng = 16;
        let bins = power_spectrum(&lattice(ng), ng, ng as f64);
        for b in &bins {
            assert!(b.power.abs() < 1e-20, "k={} P={}", b.k, b.power);
        }
    }

    #[test]
    fn bins_cover_expected_k_range() {
        let ng = 16;
        let bins = power_spectrum(&lattice(ng), ng, 16.0);
        let kf = 2.0 * std::f64::consts::PI / 16.0;
        // first shell averages modes with |k| in [1, 2) fundamentals
        assert!(
            bins[0].k >= kf && bins[0].k < 2.0 * kf,
            "first bin k = {} (kf = {kf})",
            bins[0].k
        );
        assert!(bins.last().unwrap().k <= kf * (ng / 2) as f64);
        // mode counts grow ~k² for low shells
        assert!(bins[3].modes > bins[0].modes);
    }

    #[test]
    fn single_plane_wave_displacement_peaks_at_its_mode() {
        // displace the lattice sinusoidally along x with wavevector 3·kf:
        // linear density contrast appears at bin near k = 3 kf
        let ng = 32;
        let amp = 0.05;
        let pts: Vec<Vec3> = lattice(ng)
            .into_iter()
            .map(|q| {
                let phase = 2.0 * std::f64::consts::PI * 3.0 * q.x / ng as f64;
                let mut p = q;
                p.x = (q.x + amp * phase.sin()).rem_euclid(ng as f64);
                p
            })
            .collect();
        let bins = power_spectrum(&pts, ng, ng as f64);
        let peak = bins
            .iter()
            .max_by(|a, b| a.power.partial_cmp(&b.power).unwrap())
            .unwrap();
        let kf = 2.0 * std::f64::consts::PI / ng as f64;
        assert!(
            (peak.k - 3.0 * kf).abs() < 0.6 * kf,
            "peak at k={} expected {}",
            peak.k,
            3.0 * kf
        );
    }

    #[test]
    fn ic_realization_follows_input_spectrum_shape() {
        // Compare the measured IC spectrum against the (rescaled) input
        // shape over mid-range bins, where the box has many modes and the
        // CIC/mesh corrections are benign.
        let ng = 32;
        let spectrum = PowerSpectrum::default();
        let ic = zeldovich(
            &IcParams {
                np: ng,
                box_size: ng as f64,
                seed: 17,
                delta_rms: 0.05, // near-linear so Zel'dovich ↔ δ mapping holds
                spectrum,
            },
            &Cosmology::default(),
            1.0,
        );
        let bins = power_spectrum(&ic.positions, ng, ng as f64);
        // fit single amplitude over bins 2..8 and check shape residuals
        let mid: Vec<&SpectrumBin> = bins.iter().skip(2).take(6).collect();
        let mut num = 0.0;
        let mut den = 0.0;
        for b in &mid {
            let model = spectrum.eval(b.k);
            num += b.power * model;
            den += model * model;
        }
        let amp = num / den;
        assert!(amp > 0.0);
        for b in &mid {
            let model = amp * spectrum.eval(b.k);
            let ratio = b.power / model;
            assert!(
                (0.5..2.0).contains(&ratio),
                "k={:.3}: measured {:.3e} vs model {:.3e} (ratio {ratio:.2})",
                b.k,
                b.power,
                model
            );
        }
    }

    #[test]
    fn clustering_grows_small_scale_power() {
        let ng = 16;
        let params = IcParams {
            np: ng,
            box_size: ng as f64,
            seed: 4,
            delta_rms: 0.3,
            spectrum: PowerSpectrum::default(),
        };
        let cosmo = Cosmology::default();
        let ic = zeldovich(&params, &cosmo, 0.1);
        let before = power_spectrum(&ic.positions, ng, ng as f64);
        let solver = PmSolver::new(ng, cosmo);
        let (mut pos, mut mom) = (ic.positions, ic.momenta);
        let mut a = 0.1;
        for _ in 0..30 {
            solver.step(&mut pos, &mut mom, a, 0.03);
            a += 0.03;
        }
        let after = power_spectrum(&pos, ng, ng as f64);
        // total power grows
        let total_before: f64 = before.iter().map(|b| b.power * b.modes as f64).sum();
        let total_after: f64 = after.iter().map(|b| b.power * b.modes as f64).sum();
        assert!(
            total_after > 3.0 * total_before,
            "{total_before} -> {total_after}"
        );
    }
}
