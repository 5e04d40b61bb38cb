//! Particle-mesh N-body cosmology simulation — the HACC stand-in.
//!
//! The paper runs its tessellation in situ with HACC, a multi-method
//! petascale N-body framework. This crate reproduces the part of HACC the
//! tessellation actually consumes: a periodic-box dark-matter-only
//! simulation whose particles start near a regular lattice (1 Mpc/h
//! spacing) and evolve gravitationally into halos, filaments, and voids.
//!
//! Components:
//!
//! * [`cosmology`] — an Einstein–de Sitter background in code units
//!   (lengths in grid cells, time in 1/H₀), where the growth factor is
//!   simply `D(a) = a`.
//! * [`power`] — an initial power spectrum `P(k) ∝ kⁿ T²(k)` with a
//!   BBKS-like transfer function.
//! * [`ic`] — Zel'dovich initial conditions from a Gaussian random field.
//! * [`cic`] — fixed-point cloud-in-cell deposit and its weights.
//! * [`poisson`] — serial FFT Poisson solver (discrete 7-point Green's
//!   function).
//! * [`slabfft`] — the distributed slab-FFT Poisson solver.
//! * [`stepper`] — serial kick–drift integrator, the one-rank oracle.
//! * [`sim`] — the distributed simulation: particles owned per diy block,
//!   the integer deposit reduce-scattered to z-slabs and solved by the
//!   slab FFT, particles migrated between blocks after every drift. Its
//!   particles have the same bits at every rank count.
//!
//! Fidelity note (see `DESIGN.md`): this is a first-order symplectic PM
//! integrator, qualitatively — not quantitatively — matching HACC. The
//! paper's experiments consume only the *morphology* of the particle
//! distribution (cell volume distributions, voids), which PM dynamics
//! reproduce well at laptop scale.

pub mod cic;
pub mod cosmology;
pub mod ic;
pub mod poisson;
pub mod power;
pub mod sim;
pub mod slabfft;
#[cfg(test)]
mod spectrum;
pub mod stepper;

pub use cosmology::Cosmology;
pub use sim::{Particle, SimParams, Simulation, PHASE_SIM};
pub use stepper::PmSolver;
