//! The simulation's particles do not depend on the rank count: the
//! fixed-point CIC deposit sums integers, so the density has the same bits
//! whatever order ranks add their particles in, and the slab FFT solve
//! equals the serial one bit for bit. After N steps every particle's
//! position and momentum are therefore the same bits at 1/2/3/4/8 ranks,
//! under the regular and the k-d block scheme, and equal the serial
//! `PmSolver` stepped with the same scale-factor schedule. An in-situ run —
//! simulation, then a streamed tessellation — writes the same blocks at 1
//! and 2 ranks.

use std::collections::BTreeMap;

use meshing_universe::diy::codec::Encode;
use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::DecompScheme;
use meshing_universe::geometry::Vec3;
use meshing_universe::hacc::cosmology::Cosmology;
use meshing_universe::hacc::ic::{zeldovich, IcParams};
use meshing_universe::hacc::{PmSolver, SimParams, Simulation};
use meshing_universe::tess::{self, TessParams};

const NBLOCKS: usize = 8;

const KD: DecompScheme = DecompScheme::Kd {
    sample: DecompScheme::DEFAULT_KD_SAMPLE,
};

/// The paper-like deck at 16³, evolved from `a_init` to `a = 1` in 20 steps.
fn deck() -> SimParams {
    SimParams {
        nsteps: 20,
        ..SimParams::paper_like(16)
    }
}

/// A particle's id and the bits of its position and momentum.
type Bits = (u64, [u64; 3], [u64; 3]);

fn bits(id: u64, pos: Vec3, mom: Vec3) -> Bits {
    let b = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    (id, b(pos), b(mom))
}

/// Every particle after `deck().nsteps` steps on `nranks` ranks, by id.
fn distributed(nranks: usize, scheme: DecompScheme) -> Vec<Bits> {
    let params = deck();
    let per_rank = Runtime::run(nranks, |w| {
        let mut sim = Simulation::init_with_decomp(w, params, NBLOCKS, scheme);
        sim.run_steps(w, params.nsteps);
        sim.local_particles()
            .map(|p| bits(p.id, p.pos, p.mom))
            .collect::<Vec<_>>()
    });
    let mut all: Vec<Bits> = per_rank.into_iter().flatten().collect();
    all.sort_by_key(|b| b.0);
    all
}

/// The serial oracle: the same initial conditions stepped by `PmSolver`
/// with `a_at(k)` and `da_at(k)`.
fn serial() -> Vec<Bits> {
    let params = deck();
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
    let (mut pos, mut mom) = (ic.positions, ic.momenta);
    for k in 0..params.nsteps {
        solver.step(&mut pos, &mut mom, params.a_at(k), params.da_at(k));
    }
    (0..pos.len())
        .map(|i| bits(i as u64, pos[i], mom[i]))
        .collect()
}

fn assert_same_particles(reference: &[Bits], got: &[Bits], label: &str) {
    assert_eq!(reference.len(), got.len(), "{label}: particle count");
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    assert_eq!(
        differing,
        0,
        "{label}: {differing} of {} particles differ in bits",
        reference.len()
    );
}

#[test]
fn particles_have_the_same_bits_at_every_rank_count_and_equal_the_serial_stepper() {
    let oracle = serial();
    for (scheme, name) in [(DecompScheme::Regular, "regular"), (KD, "kd")] {
        for nranks in [1usize, 2, 3, 4, 8] {
            let got = distributed(nranks, scheme);
            assert_same_particles(&oracle, &got, &format!("{name} blocks, {nranks} ranks"));
        }
    }
}

/// An in-situ run: evolve the deck on `nranks` ranks, stream its mesh to a
/// file, read the file back as gid → block bytes.
fn insitu_mesh(nranks: usize) -> BTreeMap<u64, Vec<u8>> {
    let dir = std::env::temp_dir().join("sim-determinism-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("insitu_r{nranks}.tess"));
    let path_ref = &path;
    let params = SimParams {
        nsteps: 10,
        ..SimParams::paper_like(16)
    };
    Runtime::run(nranks, |w| {
        let mut sim = Simulation::init(w, params, NBLOCKS);
        sim.run_steps(w, params.nsteps);
        let local: BTreeMap<u64, Vec<(u64, Vec3)>> = sim
            .blocks
            .iter()
            .map(|(&gid, ps)| (gid, ps.iter().map(|p| (p.id, p.pos)).collect()))
            .collect();
        tess::tessellate_streaming(
            w,
            &sim.dec,
            &sim.asn,
            &local,
            &TessParams::default(),
            path_ref,
        )
        .expect("streaming pass");
    });
    tess::io::read_tessellation(&path)
        .unwrap()
        .into_iter()
        .map(|b| (b.gid, b.to_bytes()))
        .collect()
}

#[test]
fn insitu_mesh_has_the_same_blocks_at_one_and_two_ranks() {
    let one = insitu_mesh(1);
    let two = insitu_mesh(2);
    assert_eq!(
        one.keys().collect::<Vec<_>>(),
        two.keys().collect::<Vec<_>>(),
        "block gid sets differ"
    );
    for (gid, bytes) in &one {
        assert!(
            two[gid] == *bytes,
            "block {gid} differs between 1 and 2 ranks"
        );
    }
}
