//! Distributed friends-of-friends against a brute-force periodic oracle,
//! and the shape of its communication: one ghost exchange, one label
//! exchange and one tree merge, whatever the halo's diameter in blocks.

use std::collections::BTreeMap;

use meshing_universe::diy::comm::{Runtime, World};
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::framework::tools::halo_finder::{find_halos, FofHalo, FofParams};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::hacc::{self, SimParams, Simulation};
use meshing_universe::postprocess::components::merge_across_ranks;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const BOX: f64 = 8.0;

/// Run `find_halos` on `nranks` ranks over `particles` (id = index) in an
/// 8-block periodic box. Returns per rank the halos and the messages that
/// rank sent while finding them.
fn fof_on_ranks(nranks: usize, particles: &[Vec3], params: FofParams) -> Vec<(Vec<FofHalo>, u64)> {
    Runtime::run(nranks, |world| {
        let sim = simulation(world, particles);
        let sent = |w: &mut World| w.metrics().snapshot().traffic_totals().0;
        let before = sent(world);
        let halos = find_halos(world, &sim, &params);
        (halos, sent(world) - before)
    })
}

/// A simulation on 8 blocks whose particles are replaced by `particles`.
fn simulation(world: &mut World, particles: &[Vec3]) -> Simulation {
    let params = SimParams {
        np: 8,
        box_size: BOX,
        a_init: 0.1,
        a_final: 1.0,
        nsteps: 1,
        seed: 1,
        initial_delta_rms: 0.0,
        spectrum: hacc::power::PowerSpectrum::default(),
    };
    let mut sim = Simulation::init(world, params, 8);
    for ps in sim.blocks.values_mut() {
        ps.clear();
    }
    for (id, &pos) in particles.iter().enumerate() {
        let gid = sim.dec.block_of_point(pos);
        if let Some(v) = sim.blocks.get_mut(&gid) {
            v.push(hacc::Particle {
                id: id as u64,
                pos,
                mom: Vec3::ZERO,
            });
        }
    }
    sim
}

/// Brute-force periodic FOF: `(minimum id, members)` of every group, in
/// `find_halos` order (decreasing size, then label). Labels settle by
/// repeated min-propagation over all pairs, independent of any union-find.
fn brute_fof(particles: &[Vec3], ell: f64) -> Vec<(u64, u64)> {
    let domain = Aabb::cube(BOX);
    let n = particles.len();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|&(i, j)| domain.periodic_dist(particles[i], particles[j]) <= ell)
        .collect();
    let mut label: Vec<u64> = (0..n as u64).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(i, j) in &pairs {
            let m = label[i].min(label[j]);
            if label[i] != m || label[j] != m {
                label[i] = m;
                label[j] = m;
                changed = true;
            }
        }
    }
    let mut count: BTreeMap<u64, u64> = BTreeMap::new();
    for l in label {
        *count.entry(l).or_default() += 1;
    }
    let mut groups: Vec<(u64, u64)> = count.into_iter().collect();
    groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    groups
}

/// 280 particles 0.1 apart along a path through the centres of all eight
/// blocks, each block holding one straight 40-particle leg.
fn chained_halo() -> Vec<Vec3> {
    let corners = [
        [2.0, 2.0, 2.0],
        [6.0, 2.0, 2.0],
        [6.0, 6.0, 2.0],
        [2.0, 6.0, 2.0],
        [2.0, 6.0, 6.0],
        [6.0, 6.0, 6.0],
        [6.0, 2.0, 6.0],
        [2.0, 2.0, 6.0],
    ];
    let corners = corners.map(|[x, y, z]| Vec3::new(x, y, z));
    corners
        .windows(2)
        .flat_map(|leg| {
            let dir = (leg[1] - leg[0]) * 0.25;
            (0..40).map(move |s| leg[0] + dir * (0.05 + 0.1 * s as f64))
        })
        .collect()
}

/// 280 particles on a 7×8×5 lattice of spacing 0.1 inside one block.
fn compact_halo() -> Vec<Vec3> {
    let mut pts = Vec::new();
    for i in 0..7 {
        for j in 0..8 {
            for k in 0..5 {
                pts.push(Vec3::new(1.7, 1.6, 1.8) + Vec3::new(i as f64, j as f64, k as f64) * 0.1);
            }
        }
    }
    pts
}

#[test]
fn a_halo_through_every_block_sends_as_many_messages_as_a_compact_one() {
    let params = FofParams {
        linking_length: 0.12,
        min_size: 10,
    };
    let (chained, compact) = (chained_halo(), compact_halo());
    assert_eq!((chained.len(), compact.len()), (280, 280));
    for nranks in [2, 4, 8] {
        let mut messages = Vec::new();
        for particles in [&chained, &compact] {
            let runs = fof_on_ranks(nranks, particles, params);
            for (halos, _) in &runs {
                let found: Vec<(u64, u64)> = halos.iter().map(|h| (h.label, h.count)).collect();
                assert_eq!(found, vec![(0, 280)], "nranks={nranks}");
            }
            messages.push(runs.iter().map(|r| r.1).collect::<Vec<_>>());
        }
        assert!(messages[0].iter().all(|&m| m > 0));
        assert_eq!(
            messages[0], messages[1],
            "nranks={nranks}: chained vs compact"
        );
    }
}

#[test]
fn labels_and_counts_match_brute_force_periodic_fof_at_every_rank_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let mut particles: Vec<Vec3> = (0..400)
        .map(|_| {
            Vec3::new(
                rng.gen_range(0.0..BOX),
                rng.gen_range(0.0..BOX),
                rng.gen_range(0.0..BOX),
            )
        })
        .collect();
    // a filament across the periodic x seam and the block seams at 4.0
    particles.extend((0..30).map(|s| Vec3::new((7.0 + 0.1 * s as f64) % BOX, 4.02, 3.98)));
    let ell = 0.6;
    let expected = brute_fof(&particles, ell);
    assert!(expected.len() > 20 && expected[0].1 >= 30, "{expected:?}");

    let params = FofParams {
        linking_length: ell,
        min_size: 1,
    };
    for nranks in [1, 2, 4, 8] {
        let runs = fof_on_ranks(nranks, &particles, params);
        for (halos, _) in &runs {
            assert_eq!(
                halos, &runs[0].0,
                "nranks={nranks}: every rank holds the same list"
            );
        }
        let found: Vec<(u64, u64)> = runs[0].0.iter().map(|h| (h.label, h.count)).collect();
        assert_eq!(found, expected, "nranks={nranks}");
    }
}

#[test]
fn shared_labels_and_ghost_only_components_resolve_to_one_component() {
    // Rank r owns block r. Rank 0 owns particles 1, 6 and 8, rank 1 owns
    // 4 and 9. Rank 0 sees {1, 6, ghost 4} and {8}; rank 1 sees
    // {ghost 1, 4, 9} — the same label 1 as rank 0's group — and
    // {ghost 6, ghost 8}, whose label 6 names no partial.
    let dec = Decomposition::with_dims(Aabb::cube(2.0), [2, 1, 1], [false; 3]);
    let runs = Runtime::run(2, |world| {
        let asn = Assignment::new(2, 2);
        // (partials as (label, own particles), boundary entries, owned id → label)
        let (partials, boundary, owned) = match world.rank() {
            0 => (
                vec![(1, 2), (8, 1)],
                vec![(0, 4, 1)],
                BTreeMap::from([(1, 1), (6, 1), (8, 8)]),
            ),
            _ => (
                vec![(1, 2)],
                vec![(1, 1, 1), (1, 6, 6), (1, 8, 6)],
                BTreeMap::from([(4, 1), (9, 1)]),
            ),
        };
        let merged = merge_across_ranks(
            world,
            &dec,
            &asn,
            partials,
            &boundary,
            |id| owned.get(&id).copied(),
            |a: &mut u64, b: &u64| *a += b,
        );
        let global: BTreeMap<u64, u64> = merged.global.into_iter().collect();
        (global, merged.summaries)
    });
    for (global, summaries) in &runs {
        assert_eq!(global, &BTreeMap::from([(1, 1), (6, 1), (8, 1)]));
        assert_eq!(summaries, &BTreeMap::from([(1, 5)]));
    }
}
