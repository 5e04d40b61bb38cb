//! Integration test of the void-finding pipeline (Figures 7 and 9):
//! threshold → connected components → Minkowski functionals, with the
//! distributed component labeling checked against the serial union-find
//! and the functionals checked against a position-keyed oracle on meshes
//! of one and of eight blocks.

use std::collections::{BTreeMap, HashSet};

use bench_harness::partition_particles;
use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, DecompScheme};
use meshing_universe::diy::hash::{FxHashMap, FxHashSet};
use meshing_universe::geometry::measures::{dihedral_angle, polygon_area, polygon_normal};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::postprocess::components::{label_components_parallel, Components};
use meshing_universe::postprocess::{
    label_components_serial, minkowski_functionals, Minkowski, VolumeFilter,
};
use meshing_universe::tess::{self, MeshBlock, TessParams, NO_NEIGHBOR};
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

/// The oracle's boundary edge: its length summed over the faces that list
/// it, and the normals of the first two.
#[derive(Default)]
struct EdgeFaces {
    len2: f64,
    normals: [Vec3; 2],
    faces: u32,
}

impl EdgeFaces {
    fn add(&mut self, len: f64, normal: Vec3) {
        self.len2 += len;
        if let Some(slot) = self.normals.get_mut(self.faces as usize) {
            *slot = normal;
        }
        self.faces += 1;
    }
}

/// Test oracle: the functionals keyed by vertex *positions* — every
/// boundary-face edge wraps and quantizes both of its ends and is hashed
/// by the two 1e-6 grid keys. The library numbers vertices instead; this
/// is the position-keyed definition it must reproduce.
fn reference_minkowski(blocks: &[MeshBlock], sites: &HashSet<u64>, domain: &Aabb) -> Minkowski {
    // Every cell and every face of a member asks for membership: one
    // FxHash copy of the set answers those for less than SipHash would.
    let sites: FxHashSet<u64> = sites.iter().copied().collect();
    let mut v0 = 0.0;
    let mut v1 = 0.0;

    // Quantized-vertex helpers (periodic wrap, then round).
    let quant = |p: Vec3| -> (i64, i64, i64) {
        let w = domain.wrap(p);
        let e = domain.extent();
        // wrap can return exactly the upper edge after rounding; fold it
        let fold = |x: f64, lo: f64, len: f64| {
            let q = ((x - lo) * 1e6).round() as i64;
            let n = (len * 1e6).round() as i64;
            if n > 0 {
                q.rem_euclid(n)
            } else {
                q
            }
        };
        (
            fold(w.x, domain.min.x, e.x),
            fold(w.y, domain.min.y, e.y),
            fold(w.z, domain.min.z, e.z),
        )
    };

    // Boundary edges: edge key → the faces listing it, held inline. FxHash
    // has no random state, so V2 below sums the edges in the same order on
    // every call.
    type EdgeKey = ((i64, i64, i64), (i64, i64, i64));
    let mut edges: FxHashMap<EdgeKey, EdgeFaces> = FxHashMap::default();
    let mut boundary_verts: FxHashSet<(i64, i64, i64)> = FxHashSet::default();
    let mut boundary_faces: u64 = 0;
    let mut pts: Vec<Vec3> = Vec::new();

    for b in blocks {
        for c in &b.cells {
            let id = b.site_id_of(c);
            if !sites.contains(&id) {
                continue;
            }
            v0 += c.volume;
            for f in c.faces {
                let is_boundary = f.neighbor == NO_NEIGHBOR || !sites.contains(&f.neighbor);
                if !is_boundary {
                    continue;
                }
                pts.clear();
                pts.extend(f.verts.iter().map(|&v| b.verts[v as usize]));
                if pts.len() < 3 {
                    continue;
                }
                v1 += polygon_area(&pts);
                boundary_faces += 1;
                let Some(n) = polygon_normal(&pts) else {
                    continue;
                };
                for i in 0..pts.len() {
                    let a = pts[i];
                    let bb = pts[(i + 1) % pts.len()];
                    let (qa, qb) = (quant(a), quant(bb));
                    if qa == qb {
                        continue; // degenerate sliver edge
                    }
                    boundary_verts.insert(qa);
                    boundary_verts.insert(qb);
                    let key = if qa < qb { (qa, qb) } else { (qb, qa) };
                    edges.entry(key).or_default().add(a.dist(bb), n);
                }
            }
        }
    }

    let mut v2 = 0.0;
    let mut unmatched = 0u64;
    let mut edge_count = 0i64;
    for e in edges.values() {
        edge_count += 1;
        if e.faces == 2 {
            // each face contributed the length once → halve
            let ell = e.len2 / 2.0;
            let theta = dihedral_angle(e.normals[0], e.normals[1]);
            v2 += 0.5 * ell * (std::f64::consts::PI - theta);
        } else {
            unmatched += 1;
        }
    }

    let euler = boundary_verts.len() as i64 - edge_count + boundary_faces as i64;
    let genus = 1.0 - euler as f64 / 2.0;
    let thickness = if v1 > 0.0 { 3.0 * v0 / v1 } else { 0.0 };
    let breadth = if v2 > 0.0 { v1 / v2 } else { 0.0 };
    let length = v2 / (4.0 * std::f64::consts::PI);

    Minkowski {
        v0_volume: v0,
        v1_area: v1,
        v2_curvature: v2,
        v3_euler: euler,
        genus,
        thickness,
        breadth,
        length,
        unmatched_edges: unmatched,
    }
}

/// Tessellate into 8 blocks of `scheme` on 2 ranks; the merged blocks.
fn tessellate_8_blocks(
    particles: &[(u64, Vec3)],
    domain: Aabb,
    scheme: DecompScheme,
    params: &TessParams,
) -> Vec<MeshBlock> {
    let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
    let dec = scheme.build(domain, 8, [true; 3], &positions);
    let asn = Assignment::new(8, 2);
    Runtime::run(2, |world| {
        let local = partition_particles(particles, &dec, &asn, world.rank());
        tess::tessellate(world, &dec, &asn, &local, params).blocks
    })
    .into_iter()
    .flat_map(|blocks| blocks.into_values())
    .collect()
}

/// The sites of the `k` largest components above `threshold`.
fn largest_components(blocks: &[MeshBlock], threshold: f64, k: usize) -> Vec<HashSet<u64>> {
    let comps = label_components_serial(blocks, threshold);
    comps
        .by_volume()
        .into_iter()
        .take(k)
        .map(|(label, _)| {
            comps
                .labels
                .iter()
                .filter(|&(_, &l)| l == label)
                .map(|(&s, _)| s)
                .collect()
        })
        .collect()
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

#[test]
fn minkowski_matches_the_position_keyed_oracle_across_blocks_and_the_seam() {
    let (particles, domain) = clumpy_particles(7, 6, 500);
    let serial = tessellate_all(&particles, domain);
    // Regular blocks unless the CI k-d pass sets TESS_DECOMP: with fixed
    // ghosts either scheme's cells are the serial cells.
    let scheme = DecompScheme::from_env();
    let fixed = tessellate_8_blocks(
        &particles,
        domain,
        scheme,
        &TessParams::default().with_ghost(6.0),
    );
    let kd = tessellate_8_blocks(
        &particles,
        domain,
        DecompScheme::Kd { sample: 0 },
        &TessParams::default().with_adaptive_ghost(),
    );
    let thresholds = [0.15, 0.4, 0.7].map(|f| VolumeFilter::fraction_of_range(&serial, f).min);

    let (mut multi_block, mut seam) = (false, false);
    let fixed_name = format!("8 {} blocks, fixed ghosts", scheme.label());
    for (name, mesh) in [
        ("1 block", &serial),
        (fixed_name.as_str(), &fixed),
        ("8 k-d blocks, adaptive ghosts", &kd),
    ] {
        assert!(!mesh.is_empty());
        for (k, &t) in thresholds.iter().enumerate() {
            let comps = largest_components(mesh, t, 5);
            assert!(!comps.is_empty(), "{name}, threshold {k}");
            for (c, sites) in comps.iter().enumerate() {
                let case = format!("{name}, threshold {k}, component {c}");
                let m = minkowski_functionals(mesh, sites, &domain);
                let o = reference_minkowski(mesh, sites, &domain);
                assert_eq!(m.v0_volume.to_bits(), o.v0_volume.to_bits(), "{case}");
                assert_eq!(m.v1_area.to_bits(), o.v1_area.to_bits(), "{case}");
                assert_eq!(m.v3_euler, o.v3_euler, "{case}");
                assert_eq!(m.unmatched_edges, o.unmatched_edges, "{case}");
                assert!(
                    rel_close(m.v2_curvature, o.v2_curvature),
                    "{case}: V2 {} against {}",
                    m.v2_curvature,
                    o.v2_curvature
                );
                // the inputs exercise both kinds of stitching: a component
                // spread over several blocks, and one whose cells reach
                // past the periodic box
                let mut holding = 0;
                for b in mesh.iter() {
                    let members: Vec<_> = b
                        .cells
                        .iter()
                        .filter(|&cell| sites.contains(&b.site_id_of(cell)))
                        .collect();
                    holding += usize::from(!members.is_empty());
                    seam |= members.iter().any(|cell| {
                        let mut corners = cell.faces.iter().flat_map(|f| f.verts);
                        corners.any(|&v| !domain.contains(b.verts[v as usize]))
                    });
                }
                multi_block |= holding > 1;
            }
        }
    }
    assert!(
        multi_block && seam,
        "no component crosses blocks and the seam"
    );

    // The fixed-ghost blocks' cells are the serial cells: one component
    // has the same functionals however many blocks hold it.
    for &t in &thresholds {
        for sites in largest_components(&serial, t, 5) {
            let one = minkowski_functionals(&serial, &sites, &domain);
            let eight = minkowski_functionals(&fixed, &sites, &domain);
            assert_eq!(one.v3_euler, eight.v3_euler);
            assert_eq!(one.unmatched_edges, eight.unmatched_edges);
            for (a, b) in [
                (one.v0_volume, eight.v0_volume),
                (one.v1_area, eight.v1_area),
                (one.v2_curvature, eight.v2_curvature),
            ] {
                assert!(rel_close(a, b), "1 block {a} against 8 blocks {b}");
            }
        }
    }
}
