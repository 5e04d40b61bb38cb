//! Integration test of the void-finding pipeline (Figures 7 and 9):
//! threshold → connected components → Minkowski functionals, with the
//! distributed component labeling checked against the serial union-find.

use std::collections::{BTreeMap, HashSet};

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::postprocess::components::{label_components_parallel, Components};
use meshing_universe::postprocess::{label_components_serial, minkowski_functionals, VolumeFilter};
use meshing_universe::tess::{self, TessParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Clustered particles: `clumps` dense clumps of 60 + `background` uniform
/// points → clear voids.
fn clumpy_particles(seed: u64, clumps: usize, background: usize) -> (Vec<(u64, Vec3)>, Aabb) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let box_len = 12.0;
    let mut particles = Vec::new();
    let mut id = 0u64;
    // clumps
    for _ in 0..clumps {
        let center = Vec3::new(
            rng.gen_range(1.0..11.0),
            rng.gen_range(1.0..11.0),
            rng.gen_range(1.0..11.0),
        );
        for _ in 0..60 {
            let p = center
                + Vec3::new(
                    rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                    rng.gen_range(-0.5..0.5),
                );
            particles.push((id, Aabb::cube(box_len).wrap(p)));
            id += 1;
        }
    }
    // sparse background
    for _ in 0..background {
        particles.push((
            id,
            Vec3::new(
                rng.gen_range(0.0..box_len),
                rng.gen_range(0.0..box_len),
                rng.gen_range(0.0..box_len),
            ),
        ));
        id += 1;
    }
    (particles, Aabb::cube(box_len))
}

fn tessellate_all(particles: &[(u64, Vec3)], domain: Aabb) -> Vec<tess::MeshBlock> {
    let (block, _) = tess::tessellate_serial(
        particles,
        domain,
        [true; 3],
        &TessParams::default().with_ghost(6.0),
    );
    vec![block]
}

#[test]
fn thresholding_reveals_voids_with_sane_minkowski_values() {
    let (particles, domain) = clumpy_particles(3, 8, 120);
    let blocks = tessellate_all(&particles, domain);

    // no threshold → fully connected
    let all = label_components_serial(&blocks, 0.0);
    assert_eq!(all.num_components(), 1);

    // 10%-of-range threshold → a handful of components
    let filter = VolumeFilter::fraction_of_range(&blocks, 0.1);
    let comps = label_components_serial(&blocks, filter.min);
    assert!(comps.num_components() >= 1);
    let kept: u64 = comps.summaries.values().map(|s| s.cells).sum();
    assert!(kept > 0 && kept < particles.len() as u64);

    for (label, summary) in comps.by_volume().into_iter().take(5) {
        let sites: HashSet<u64> = comps
            .labels
            .iter()
            .filter(|(_, &l)| l == label)
            .map(|(&s, _)| s)
            .collect();
        let m = minkowski_functionals(&blocks, &sites, &domain);
        // V0 equals the component's summed cell volume
        assert!((m.v0_volume - summary.volume).abs() < 1e-9 * summary.volume.max(1.0));
        assert!(m.v0_volume <= domain.volume());
        assert!(m.v1_area > 0.0);
        // isoperimetric inequality S³ ≥ 36π V² — valid only for bodies
        // that do not wrap around the periodic torus, so restrict it to
        // components much smaller than the box
        if m.v0_volume < 0.2 * domain.volume() {
            assert!(
                m.v1_area.powi(3) >= 36.0 * std::f64::consts::PI * m.v0_volume.powi(2) * 0.999,
                "S={} V={}",
                m.v1_area,
                m.v0_volume
            );
        }
        assert_eq!(m.unmatched_edges, 0, "watertight component boundary");
        // Euler characteristic of closed orientable surfaces is even
        assert_eq!(m.v3_euler % 2, 0);
    }
}

#[test]
fn parallel_component_labeling_matches_serial() {
    let (particles, domain) = clumpy_particles(11, 4, 600);
    let blocks_serial = tessellate_all(&particles, domain);
    let thresholds = [
        0.0,
        VolumeFilter::fraction_of_range(&blocks_serial, 0.08).min,
        VolumeFilter::fraction_of_range(&blocks_serial, 0.7).min,
    ];
    let counts: Vec<usize> = thresholds
        .iter()
        .map(|&t| label_components_serial(&blocks_serial, t).num_components())
        .collect();
    assert_eq!(counts[0], 1, "everything percolates");
    assert!(counts[2] >= 5, "many small components: {counts:?}");

    let serial_oracle: Vec<_> = thresholds
        .iter()
        .map(|&t| label_components_serial(&blocks_serial, t))
        .collect();

    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let fixed = TessParams::default().with_ghost(6.0);
    let adaptive = TessParams::default().with_adaptive_ghost();
    for (scheme, params, ghost) in [
        (DecompScheme::Regular, fixed, "fixed ghost"),
        (DecompScheme::Regular, adaptive, "adaptive ghost"),
        (DecompScheme::Kd { sample: 0 }, adaptive, "adaptive ghost"),
    ] {
        let dec = scheme.build(domain, 8, [true; 3], &positions);
        for nranks in [1usize, 2, 3, 4, 8] {
            let (dec_ref, particles_ref, thresholds_ref) = (&dec, &particles, &thresholds);
            let results = Runtime::run(nranks, move |world| {
                let asn = Assignment::new(8, world.nranks());
                let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                    .blocks_of_rank(world.rank())
                    .map(|g| (g, Vec::new()))
                    .collect();
                for &(id, p) in particles_ref {
                    if let Some(v) = local.get_mut(&dec_ref.block_of_point(p)) {
                        v.push((id, p));
                    }
                }
                let r = tess::tessellate(world, dec_ref, &asn, &local, &params);
                let comps: Vec<Components> = thresholds_ref
                    .iter()
                    .map(|&t| label_components_parallel(world, dec_ref, &asn, &r.blocks, t))
                    .collect();
                (r.blocks.into_values().collect::<Vec<_>>(), comps)
            });
            let merged: Vec<tess::MeshBlock> = results.iter().flat_map(|r| r.0.clone()).collect();
            let case = format!("{}, {ghost}, at {nranks} ranks", scheme.label());

            for (k, &t) in thresholds.iter().enumerate() {
                // A regular block's mesh is the serial mesh, so the oracle is
                // the independent serial tessellation. A k-d block can drop a
                // cell its adaptive cap cannot certify, so there the oracle
                // labels the parallel run's own mesh.
                let serial = match scheme {
                    DecompScheme::Regular => serial_oracle[k].clone(),
                    DecompScheme::Kd { .. } => label_components_serial(&merged, t),
                };
                let mut labels = BTreeMap::new();
                for (_, comps) in &results {
                    // bit for bit the same summaries on every rank
                    assert_eq!(comps[k].summaries, results[0].1[k].summaries, "{case}");
                    labels.extend(comps[k].labels.iter().map(|(&s, &l)| (s, l)));
                }
                let summaries = &results[0].1[k].summaries;
                assert_eq!(summaries.len(), serial.summaries.len(), "{case}");
                for (label, s) in summaries {
                    let ss = serial.summaries[label];
                    assert_eq!(s.cells, ss.cells, "{case}: component {label}");
                    assert!((s.volume - ss.volume).abs() < 1e-9 * ss.volume.max(1.0));
                }
                // every rank's kept sites, labeled as the serial labels them
                assert_eq!(labels, serial.labels, "{case}, threshold {k}");
            }
        }
    }
}
