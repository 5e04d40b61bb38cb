//! The distributed simulation: HACC's role in the paper's workflow.
//!
//! Particles are owned by diy blocks (one or more per rank). Every step:
//!
//! 1. each rank deposits its particles into a private fixed-point mass
//!    grid ([`cic::deposit`]),
//! 2. one all-to-all sums the grids into z-slabs, one per rank
//!    ([`slabfft::reduce_scatter_mass`]), and each rank turns its slab into
//!    density contrast,
//! 3. the slab FFT solves for the potential (HACC's distributed spectral
//!    component, [`slabfft::solve_potential_slab`]) and every rank gathers
//!    the potential slabs into the full grid,
//! 4. each rank kicks and drifts its own particles,
//! 5. particles that left their block are migrated to the owning block
//!    through the neighbor-exchange machinery.
//!
//! Integer deposit sums do not depend on their order, and the slab solve
//! equals the serial one bit for bit, so the particles after any number of
//! steps have the same bits at every rank count and block scheme, and equal
//! the serial [`PmSolver`] stepped with [`SimParams::a_at`] and
//! [`SimParams::da_at`].
//!
//! Initial conditions are regenerated deterministically from the seed on
//! every rank (cheap at laptop scale), so no initial scatter is needed.

use std::collections::BTreeMap;

use diy::codec::{CodecError, Decode, Encode, Reader};
use diy::comm::World;
use diy::decomposition::{Assignment, DecompScheme, Decomposition};
use diy::exchange::NeighborExchange;
use fft3d::Grid3;
use geometry::{Aabb, Vec3};

use crate::cic;
use crate::cosmology::Cosmology;
use crate::ic::{zeldovich, IcParams};
use crate::power::PowerSpectrum;
use crate::slabfft;
use crate::stepper::PmSolver;

/// A tracer particle. Positions are in grid units (`[0, np)³`); multiply by
/// [`SimParams::mpc_per_cell`] for Mpc/h.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub id: u64,
    pub pos: Vec3,
    pub mom: Vec3,
}

impl Encode for Particle {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.pos.encode(buf);
        self.mom.encode(buf);
    }
}

impl Decode for Particle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Particle {
            id: u64::decode(r)?,
            pos: Vec3::decode(r)?,
            mom: Vec3::decode(r)?,
        })
    }
}

/// Simulation configuration (the "input deck" of Figure 4).
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Particles per dimension (= PM grid size); power of two.
    pub np: usize,
    /// Physical box size in Mpc/h. The paper sets `box_size = np`, i.e.
    /// 1 Mpc/h initial particle spacing.
    pub box_size: f64,
    pub a_init: f64,
    pub a_final: f64,
    pub nsteps: usize,
    pub seed: u64,
    /// RMS density contrast of the initial field.
    pub initial_delta_rms: f64,
    pub spectrum: PowerSpectrum,
}

impl SimParams {
    /// The paper's configuration scaled to `np` particles per dimension:
    /// 1 Mpc/h spacing, 100 steps to a = 1.
    pub fn paper_like(np: usize) -> Self {
        SimParams {
            np,
            box_size: np as f64,
            a_init: 0.05,
            a_final: 1.0,
            nsteps: 100,
            seed: 42,
            initial_delta_rms: 0.5,
            spectrum: PowerSpectrum::default(),
        }
    }

    /// Scale factor at the start of step `k`. Steps are uniform in
    /// log(a) (HACC-style), so early steps resolve the near-linear regime
    /// and the growth per step is constant.
    pub fn a_at(&self, step: usize) -> f64 {
        let f = step as f64 / self.nsteps as f64;
        self.a_init * (self.a_final / self.a_init).powf(f)
    }

    /// Scale-factor increment of step `k`.
    pub fn da_at(&self, step: usize) -> f64 {
        self.a_at(step + 1) - self.a_at(step)
    }

    pub fn mpc_per_cell(&self) -> f64 {
        self.box_size / self.np as f64
    }

    pub fn total_particles(&self) -> u64 {
        (self.np * self.np * self.np) as u64
    }
}

/// Metrics span covering simulation work: initialization and every
/// kick–drift step, including particle migration (see [`diy::metrics`]).
pub const PHASE_SIM: &str = "sim";

/// One rank's view of the running simulation.
pub struct Simulation {
    pub params: SimParams,
    pub cosmo: Cosmology,
    pub dec: Decomposition,
    pub asn: Assignment,
    /// Particles per owned block gid (BTreeMap for deterministic order).
    pub blocks: BTreeMap<u64, Vec<Particle>>,
    /// Scale factor at the start of the next step, `params.a_at(step_count)`.
    pub a: f64,
    pub step_count: usize,
}

impl Simulation {
    /// Initialize on every rank of `world` with `nblocks` total blocks,
    /// decomposed by the regular grid scheme.
    pub fn init(world: &mut World, params: SimParams, nblocks: usize) -> Self {
        Self::init_with_decomp(world, params, nblocks, DecompScheme::Regular)
    }

    /// [`init`](Self::init) with an explicit decomposition scheme. The k-d
    /// scheme cuts on the Zel'dovich initial positions — every rank
    /// generates the same ICs, so every rank derives the same cuts — and
    /// pairs with a particle-count-weighted block→rank assignment.
    pub fn init_with_decomp(
        world: &mut World,
        params: SimParams,
        nblocks: usize,
        decomp: DecompScheme,
    ) -> Self {
        let _span = world.metrics().phase(PHASE_SIM);
        let cosmo = Cosmology::default();
        let domain = Aabb::cube(params.np as f64);

        let ic = zeldovich(
            &IcParams {
                np: params.np,
                box_size: params.box_size,
                seed: params.seed,
                delta_rms: params.initial_delta_rms,
                spectrum: params.spectrum,
            },
            &cosmo,
            params.a_init,
        );

        let dec = decomp.build(domain, nblocks, [true; 3], &ic.positions);
        let asn = match decomp {
            DecompScheme::Regular => Assignment::new(nblocks, world.nranks()),
            DecompScheme::Kd { .. } => {
                let mut weights = vec![0u64; nblocks];
                for &pos in &ic.positions {
                    weights[dec.block_of_point(pos) as usize] += 1;
                }
                Assignment::weighted(&weights, world.nranks())
            }
        };

        let mut blocks: BTreeMap<u64, Vec<Particle>> = asn
            .blocks_of_rank(world.rank())
            .map(|gid| (gid, Vec::new()))
            .collect();
        for (idx, (&pos, &mom)) in ic.positions.iter().zip(&ic.momenta).enumerate() {
            let gid = dec.block_of_point(pos);
            if let Some(list) = blocks.get_mut(&gid) {
                list.push(Particle {
                    id: idx as u64,
                    pos,
                    mom,
                });
            }
        }

        Simulation {
            params,
            cosmo,
            dec,
            asn,
            blocks,
            a: params.a_init,
            step_count: 0,
        }
    }

    /// Number of particles on this rank.
    pub fn local_count(&self) -> usize {
        self.blocks.values().map(Vec::len).sum()
    }

    /// All local particles (borrow).
    pub fn local_particles(&self) -> impl Iterator<Item = &Particle> {
        self.blocks.values().flatten()
    }

    /// This rank's z-slab ([`slabfft::slab_range`]) of the global density
    /// contrast, from the fixed-point deposit of every rank's particles:
    /// the same bits at any rank count. Collective.
    pub fn density_slab(&self, world: &mut World) -> Vec<f64> {
        let ng = self.params.np;
        let mut mass = Grid3::new([ng; 3], 0);
        cic::deposit(&mut mass, self.local_particles().map(|p| p.pos));
        let slab = slabfft::reduce_scatter_mass(world, mass.data(), ng);
        let mean = self.params.total_particles() as f64 / mass.len() as f64;
        cic::density_contrast(&slab, mean)
    }

    /// Advance one kick–drift step, including migration. Recorded under
    /// the [`PHASE_SIM`] metrics span.
    pub fn step(&mut self, world: &mut World) {
        let _span = world.metrics().phase(PHASE_SIM);
        let ng = self.params.np;
        let a = self.params.a_at(self.step_count);
        let da = self.params.da_at(self.step_count);

        // 1-3. density slab, slab FFT solve, potential gathered everywhere
        let delta = self.density_slab(world);
        let phi_slab =
            slabfft::solve_potential_slab(world, &delta, ng, self.cosmo.poisson_factor(a));
        let phi = Grid3::from_vec([ng; 3], world.all_gather(&phi_slab).concat());

        // 4. kick + drift local particles
        let kick = self.cosmo.kick_factor(a, da);
        let drift = self.cosmo.drift_factor(a + da, da);
        for particles in self.blocks.values_mut() {
            for p in particles.iter_mut() {
                let g = PmSolver::acceleration_at(&phi, p.pos);
                p.mom += g * kick;
                p.pos += p.mom * drift;
                for d in 0..3 {
                    p.pos[d] = p.pos[d].rem_euclid(ng as f64);
                }
            }
        }

        // 5. migrate particles that left their block
        self.migrate(world);

        self.step_count += 1;
        self.a = self.params.a_at(self.step_count);
    }

    /// Route every particle to the block that owns its position.
    fn migrate(&mut self, world: &mut World) {
        let mut outgoing: Vec<(u64, Particle)> = Vec::new();
        for (&gid, particles) in self.blocks.iter_mut() {
            let mut keep = Vec::with_capacity(particles.len());
            for p in particles.drain(..) {
                let dest = self.dec.block_of_point(p.pos);
                if dest == gid {
                    keep.push(p);
                } else {
                    outgoing.push((dest, p));
                }
            }
            *particles = keep;
        }
        let ex = NeighborExchange::new(&self.dec, &self.asn);
        let incoming = ex.exchange(world, outgoing);
        for (gid, particles) in incoming {
            self.blocks
                .get_mut(&gid)
                .expect("exchange routed to owning rank")
                .extend(particles);
        }
    }

    /// Run `n` steps.
    pub fn run_steps(&mut self, world: &mut World, n: usize) {
        for _ in 0..n {
            self.step(world);
        }
    }

    /// Global particle count (collective).
    pub fn global_count(&self, world: &mut World) -> u64 {
        world.all_reduce(self.local_count() as u64, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diy::comm::Runtime;

    fn small_params(np: usize, nsteps: usize) -> SimParams {
        SimParams {
            np,
            box_size: np as f64,
            a_init: 0.1,
            a_final: 0.5,
            nsteps,
            seed: 12,
            initial_delta_rms: 0.2,
            spectrum: PowerSpectrum::default(),
        }
    }

    #[test]
    fn particle_count_is_conserved() {
        let params = small_params(16, 10);
        Runtime::run(4, |w| {
            let mut sim = Simulation::init(w, params, 8);
            assert_eq!(sim.global_count(w), 16 * 16 * 16);
            sim.run_steps(w, 10);
            assert_eq!(sim.global_count(w), 16 * 16 * 16);
        });
    }

    #[test]
    fn particles_stay_in_their_blocks() {
        let params = small_params(16, 5);
        Runtime::run(2, |w| {
            let mut sim = Simulation::init(w, params, 8);
            sim.run_steps(w, 5);
            for (&gid, particles) in &sim.blocks {
                let bounds = sim.dec.block_bounds(gid);
                for p in particles {
                    assert!(
                        bounds.contains(p.pos),
                        "particle {} at {} outside block {gid}",
                        p.id,
                        p.pos
                    );
                }
            }
        });
    }

    #[test]
    fn distributed_matches_serial() {
        let params = small_params(16, 8);
        // serial reference
        let cosmo = Cosmology::default();
        let ic = zeldovich(
            &IcParams {
                np: params.np,
                box_size: params.box_size,
                seed: params.seed,
                delta_rms: params.initial_delta_rms,
                spectrum: params.spectrum,
            },
            &cosmo,
            params.a_init,
        );
        let solver = PmSolver::new(params.np, cosmo);
        let mut pos = ic.positions.clone();
        let mut mom = ic.momenta.clone();
        for k in 0..8 {
            solver.step(&mut pos, &mut mom, params.a_at(k), params.da_at(k));
        }

        // distributed
        let collected = Runtime::run(4, |w| {
            let mut sim = Simulation::init(w, params, 8);
            sim.run_steps(w, 8);
            sim.local_particles().copied().collect::<Vec<_>>()
        });
        let mut all: Vec<Particle> = collected.into_iter().flatten().collect();
        all.sort_by_key(|p| p.id);
        assert_eq!(all.len(), pos.len());
        for p in &all {
            assert_eq!(p.pos, pos[p.id as usize], "particle {}", p.id);
            assert_eq!(p.mom, mom[p.id as usize], "particle {}", p.id);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let params = small_params(8, 6);
        let run = || {
            let collected = Runtime::run(2, |w| {
                let mut sim = Simulation::init(w, params, 4);
                sim.run_steps(w, 6);
                sim.local_particles().copied().collect::<Vec<_>>()
            });
            let mut all: Vec<Particle> = collected.into_iter().flatten().collect();
            all.sort_by_key(|p| p.id);
            all
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.mom, y.mom);
        }
    }

    #[test]
    fn global_momentum_is_conserved() {
        let params = small_params(16, 10);
        Runtime::run(2, |w| {
            let mut sim = Simulation::init(w, params, 4);
            let before: Vec3 = sim.local_particles().fold(Vec3::ZERO, |acc, p| acc + p.mom);
            let before_all = Vec3::new(
                w.all_reduce(before.x, |a, b| a + b),
                w.all_reduce(before.y, |a, b| a + b),
                w.all_reduce(before.z, |a, b| a + b),
            );
            sim.run_steps(w, 10);
            let after: Vec3 = sim.local_particles().fold(Vec3::ZERO, |acc, p| acc + p.mom);
            let after_all = Vec3::new(
                w.all_reduce(after.x, |a, b| a + b),
                w.all_reduce(after.y, |a, b| a + b),
                w.all_reduce(after.z, |a, b| a + b),
            );
            assert!((after_all - before_all).norm() < 1e-8);
        });
    }
}
