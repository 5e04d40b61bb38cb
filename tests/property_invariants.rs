//! Property-based invariants of the tessellation over random particle
//! configurations (proptest).

use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, GhostSpec, TessParams};
use proptest::prelude::*;

/// Jittered periodic lattice: `n³` particles, never collinear or wrapped,
/// so every cell is certifiable with a modest ghost.
fn jittered_lattice(n: usize, seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            let p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5)
                + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
            let ng = n as f64;
            (
                idx as u64,
                Vec3::new(p.x.rem_euclid(ng), p.y.rem_euclid(ng), p.z.rem_euclid(ng)),
            )
        })
        .collect()
}

/// Degenerate point families the geometry kernels must survive.
fn degenerate_points(family: u8, n: usize, seed: u64) -> Vec<Vec3> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    match family % 3 {
        // duplicates: half the points repeated exactly
        0 => {
            let base: Vec<Vec3> = (0..n.div_ceil(2))
                .map(|_| {
                    Vec3::new(
                        rng.gen_range(0.5..3.5),
                        rng.gen_range(0.5..3.5),
                        rng.gen_range(0.5..3.5),
                    )
                })
                .collect();
            base.iter().chain(base.iter()).copied().take(n).collect()
        }
        // collinear: evenly spread along one diagonal
        1 => (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) / n as f64;
                Vec3::new(0.5, 0.5, 0.5) + Vec3::new(3.0, 3.0, 3.0) * t
            })
            .collect(),
        // cospherical: random directions on a sphere around the center
        _ => (0..n)
            .map(|_| {
                let d = Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                let d = d.normalized().unwrap_or(Vec3::new(1.0, 0.0, 0.0));
                Vec3::new(2.0, 2.0, 2.0) + d * 1.5
            })
            .collect(),
    }
}

/// Random particle sets that satisfy the tessellation's standing
/// assumption (shared with the paper): cells are small compared to the
/// ghost region, so no periodic Voronoi cell wraps around the torus. Fully
/// collinear or tightly clustered sets violate that — their cells span the
/// box — so the generator anchors one jittered particle per octant.
fn particles_strategy(max_n: usize, box_len: f64) -> impl Strategy<Value = Vec<(u64, Vec3)>> {
    let h = box_len / 2.0;
    let anchors = proptest::collection::vec(0.0..h * 0.9, 24).prop_map(move |j| {
        (0..8)
            .map(|o| {
                Vec3::new(
                    (o & 1) as f64 * h + 0.05 * h + j[o * 3],
                    ((o >> 1) & 1) as f64 * h + 0.05 * h + j[o * 3 + 1],
                    ((o >> 2) & 1) as f64 * h + 0.05 * h + j[o * 3 + 2],
                )
            })
            .collect::<Vec<_>>()
    });
    let extras = proptest::collection::vec((0.0..box_len, 0.0..box_len, 0.0..box_len), 8..max_n);
    (anchors, extras).prop_map(|(anchor_pts, extra_pts)| {
        anchor_pts
            .into_iter()
            .chain(extra_pts.into_iter().map(|(x, y, z)| Vec3::new(x, y, z)))
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Complete periodic Voronoi cells tile the box exactly.
    #[test]
    fn complete_cells_partition_the_periodic_box(
        particles in particles_strategy(60, 5.0)
    ) {
        let domain = Aabb::cube(5.0);
        let (block, stats) = tess::tessellate_serial(
            &particles,
            domain,
            [true; 3],
            // generous ghost: sparse random sets have big cells
            &TessParams::default().with_ghost(5.0),
        );
        prop_assert_eq!(stats.cells as usize, particles.len());
        let total: f64 = block.cells.iter().map(|c| c.volume).sum();
        prop_assert!((total - domain.volume()).abs() < 1e-6 * domain.volume(),
            "total {} vs {}", total, domain.volume());
        // every cell contains its own site
        for c in &block.cells {
            prop_assert!(c.volume > 0.0);
            prop_assert!(c.area > 0.0);
            // isoperimetric inequality per convex cell
            prop_assert!(c.area.powi(3) >= 36.0 * std::f64::consts::PI * c.volume.powi(2) * 0.999);
        }
    }

    /// Face-neighbor relations are symmetric: if q is a face neighbor of
    /// p's cell, then p is a face neighbor of q's cell.
    #[test]
    fn face_adjacency_is_symmetric(
        particles in particles_strategy(50, 5.0)
    ) {
        let (block, _) = tess::tessellate_serial(
            &particles,
            Aabb::cube(5.0),
            [true; 3],
            &TessParams::default().with_ghost(5.0),
        );
        // Tolerance-based clipping can keep an eps-scale sliver face in one
        // cell of a near-tangent pair and not the other, so symmetry is
        // only guaranteed for faces with non-degenerate area.
        let min_area = 1e-7;
        let all_sets: std::collections::HashMap<u64, std::collections::BTreeSet<u64>> =
            block.cells.iter().map(|c| {
                (block.site_id_of(c),
                 c.faces.iter().filter(|f| f.neighbor != tess::NO_NEIGHBOR)
                    .map(|f| f.neighbor).collect())
            }).collect();
        for c in &block.cells {
            let site = block.site_id_of(c);
            for f in c.faces {
                if f.neighbor == tess::NO_NEIGHBOR {
                    continue;
                }
                let area = meshing_universe::geometry::measures::polygon_area(
                    &block.face_points(f),
                );
                if area < min_area {
                    continue;
                }
                prop_assert!(
                    all_sets.get(&f.neighbor).is_some_and(|s| s.contains(&site)),
                    "asymmetric adjacency {} -> {} (face area {})", site, f.neighbor, area
                );
            }
        }
    }

    /// Volume thresholding commutes: tessellate-then-filter equals
    /// tessellate-with-min_volume.
    #[test]
    fn culling_matches_postfiltering(
        particles in particles_strategy(50, 5.0)
    ) {
        let domain = Aabb::cube(5.0);
        let base = TessParams::default().with_ghost(5.0);
        let (full, _) = tess::tessellate_serial(&particles, domain, [true; 3], &base);
        let threshold = 5.0f64.powi(3) / particles.len() as f64; // mean volume
        let culled_params = TessParams { min_volume: Some(threshold), ..base };
        let (culled, _) = tess::tessellate_serial(&particles, domain, [true; 3], &culled_params);

        let expected: std::collections::BTreeSet<u64> = full.cells.iter()
            .filter(|c| c.volume >= threshold)
            .map(|c| full.site_id_of(c)).collect();
        let got: std::collections::BTreeSet<u64> = culled.cells.iter()
            .map(|c| culled.site_id_of(c)).collect();
        prop_assert_eq!(expected, got);
    }

    /// Adaptive ghost exchange conserves volume: on a periodic box every
    /// cell ends up certified and the cell volumes sum to the box volume
    /// to 1e-9 relative tolerance, across particle counts and seeds.
    #[test]
    fn adaptive_ghost_conserves_periodic_volume(
        n in 3usize..=5,
        seed in any::<u64>(),
        amp in 0.05f64..0.45,
    ) {
        let particles = jittered_lattice(n, seed, amp);
        let domain = Aabb::cube(n as f64);
        let (block, stats) = tess::tessellate_serial(
            &particles,
            domain,
            [true; 3],
            &TessParams { ghost: GhostSpec::adaptive(), ..TessParams::default() },
        );
        prop_assert_eq!(stats.incomplete, 0, "adaptive left cells uncertified");
        prop_assert_eq!(stats.cells as usize, particles.len());
        let total: f64 = block.cells.iter().map(|c| c.volume).sum();
        prop_assert!(
            (total - domain.volume()).abs() < 1e-9 * domain.volume(),
            "total {} vs box {} ({} rounds)", total, domain.volume(), stats.ghost_rounds
        );
    }

    /// The neighbor stream is a faithful sorted enumeration: against a
    /// brute-force distance oracle it yields *exactly* the candidates
    /// within the bound, in non-decreasing distance, with exact f64
    /// distances (the f32 prefilter may never drop a true candidate).
    #[test]
    fn neighbor_stream_matches_the_brute_force_distance_oracle(
        particles in particles_strategy(40, 5.0),
        cidx in 0usize..48,
        bound in 0.5f64..9.0,
    ) {
        use meshing_universe::tess::grid::{CandidateGrid, StreamScratch};
        let region = Aabb::cube(5.0);
        let pts: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
        let ids: Vec<u64> = particles.iter().map(|&(id, _)| id).collect();
        let grid = CandidateGrid::build(region, &pts, 2.0);
        let skip = (cidx % pts.len()) as u32;
        let center = pts[skip as usize];
        let bound2 = bound * bound;

        // canonical order: distance, then id, then position
        let key = |i: u32| {
            let p = pts[i as usize];
            (p.dist2(center), ids[i as usize], [p.x, p.y, p.z])
        };
        let mut oracle: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| i != skip && key(i).0 <= bound2)
            .collect();
        oracle.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap());

        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(&pts, &ids, center, skip, &mut scratch);
        let mut got: Vec<(f64, u32)> = Vec::new();
        let mut prev = 0.0f64;
        while let Some((d2, i)) = stream.next(bound2) {
            prop_assert!(d2 >= prev, "distance went backwards: {d2} after {prev}");
            prev = d2;
            prop_assert_eq!(d2.to_bits(), pts[i as usize].dist2(center).to_bits(),
                "stream distance is not the exact f64 distance");
            got.push((d2, i));
        }
        let got_keys: Vec<_> = got.iter().map(|&(_, i)| key(i)).collect();
        let oracle_keys: Vec<_> = oracle.iter().map(|&i| key(i)).collect();
        prop_assert_eq!(got_keys, oracle_keys,
            "stream missed, invented or misordered candidates");
    }

    /// Under a shrinking bound (the kernel's security radius only ever
    /// shrinks), the stream still yields every candidate within the final
    /// bound before terminating — it never stops early.
    #[test]
    fn neighbor_stream_never_terminates_before_the_final_bound(
        particles in particles_strategy(40, 5.0),
        cidx in 0usize..48,
        start in 2.0f64..8.0,
    ) {
        use meshing_universe::tess::grid::{CandidateGrid, StreamScratch};
        let region = Aabb::cube(5.0);
        let pts: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
        let ids: Vec<u64> = particles.iter().map(|&(id, _)| id).collect();
        let grid = CandidateGrid::build(region, &pts, 2.0);
        let skip = (cidx % pts.len()) as u32;
        let center = pts[skip as usize];
        let final2 = (start * start) / 16.0;

        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(&pts, &ids, center, skip, &mut scratch);
        let mut bound2 = start * start;
        let mut emitted: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        while let Some((_, i)) = stream.next(bound2) {
            emitted.insert(i);
            // shrink the bound after every emission, as a clipping cell
            // shrinks its security radius, but never below the floor
            bound2 = (bound2 * 0.7).max(final2);
        }
        for (i, p) in pts.iter().enumerate() {
            if i as u32 == skip { continue; }
            if p.dist2(center) <= final2 {
                prop_assert!(emitted.contains(&(i as u32)),
                    "candidate {i} within the final bound was never emitted");
            }
        }
    }

    /// The geometry kernels survive degenerate inputs — duplicate,
    /// collinear, and cospherical sites — without panicking and without
    /// producing negative volumes or areas.
    #[test]
    fn degenerate_inputs_never_panic_or_go_negative(
        family in 0u8..3,
        n in 4usize..=16,
        seed in any::<u64>(),
    ) {
        use meshing_universe::geometry::convex_hull;
        use meshing_universe::tess::{
            cell::{compute_cell, CellContext, CellScratch},
            grid::CandidateGrid,
        };

        let points = degenerate_points(family, n, seed);
        let ids: Vec<u64> = (0..points.len() as u64).collect();
        let region = Aabb::cube(4.0);
        let grid = CandidateGrid::build(region, &points, 2.0);
        let mut scratch = CellScratch::default();
        let ctx = CellContext {
            points: &points,
            ids: &ids,
            grid: &grid,
            region: &region,
            clip_box: &region,
            canon_extent: None,
            eps: 1e-9,
        };
        for (i, &site) in points.iter().enumerate() {
            let cell = compute_cell(&ctx, site, i as u32, &mut scratch);
            let vol = cell.poly.volume();
            let area = cell.poly.surface_area();
            prop_assert!(vol.is_finite() && vol >= -1e-9,
                "family {} site {}: negative volume {}", family, i, vol);
            prop_assert!(area.is_finite() && area >= -1e-9,
                "family {} site {}: negative area {}", family, i, area);
        }
        // quickhull must reject degeneracy gracefully, never panic; when a
        // hull does come out (duplicates of a full-dimensional set), its
        // measures are non-negative.
        if let Ok(hull) = convex_hull(&points, 1e-9) {
            prop_assert!(hull.volume() >= -1e-9);
            prop_assert!(hull.surface_area() >= -1e-9);
        }
    }

    /// Any decomposition — regular grid or particle-balanced k-d, any
    /// block count, any domain shape — exactly partitions the domain:
    /// block volumes sum to the domain volume, block interiors are
    /// pairwise disjoint, `block_of_point` lands every point in a block
    /// whose bounds contain it, and neighbor links are symmetric under
    /// the inverse periodic image.
    #[test]
    fn decompositions_partition_the_domain(
        kd in any::<bool>(),
        nblocks in 1usize..=12,
        ext in (1.0f64..20.0, 1.0f64..20.0, 1.0f64..20.0),
        periodic in (any::<bool>(), any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
        npts in 16usize..=120,
    ) {
        use meshing_universe::diy::decomposition::DecompScheme;
        use rand::{Rng, SeedableRng};

        let domain = Aabb::new(Vec3::ZERO, Vec3::new(ext.0, ext.1, ext.2));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pt = |rng: &mut rand_chacha::ChaCha8Rng| Vec3::new(
            rng.gen_range(0.0..ext.0),
            rng.gen_range(0.0..ext.1),
            rng.gen_range(0.0..ext.2),
        );
        let points: Vec<Vec3> = (0..npts).map(|_| pt(&mut rng)).collect();
        let scheme = if kd { DecompScheme::Kd { sample: 64 } } else { DecompScheme::Regular };
        let periodic = [periodic.0, periodic.1, periodic.2];
        let dec = scheme.build(domain, nblocks, periodic, &points);

        // Union == domain, interiors disjoint.
        let vols: f64 = (0..dec.nblocks() as u64)
            .map(|g| dec.block_bounds(g).volume())
            .sum();
        prop_assert!((vols - domain.volume()).abs() <= 1e-9 * domain.volume(),
            "block volumes sum to {} but the domain has {}", vols, domain.volume());
        for a in 0..dec.nblocks() as u64 {
            let ba = dec.block_bounds(a);
            prop_assert!(domain.contains_closed(ba.min) && domain.contains_closed(ba.max),
                "block {a} {ba:?} leaks outside the domain");
            for b in (a + 1)..dec.nblocks() as u64 {
                let bb = dec.block_bounds(b);
                let overlap: f64 = (0..3).map(|d| {
                    (ba.max[d].min(bb.max[d]) - ba.min[d].max(bb.min[d])).max(0.0)
                }).product();
                prop_assert!(overlap <= 1e-9 * domain.volume(),
                    "blocks {a} and {b} overlap with volume {overlap}");
            }
        }

        // Ownership agrees with bounds (closed, since faces are shared).
        for p in points.iter().chain((0..32).map(|_| pt(&mut rng)).collect::<Vec<_>>().iter()) {
            let gid = dec.block_of_point(*p);
            prop_assert!(gid < dec.nblocks() as u64);
            prop_assert!(dec.block_bounds(gid).contains_closed(*p),
                "point {p:?} assigned to block {gid} whose bounds exclude it");
        }

        // Neighbor links are symmetric under the inverse periodic image.
        for a in 0..dec.nblocks() as u64 {
            for n in dec.neighbors(a) {
                let back = dec.neighbors(n.gid);
                prop_assert!(
                    back.iter().any(|m| m.gid == a && (m.xform + n.xform).norm() < 1e-9),
                    "link {a} -> {} (xform {:?}) has no inverse", n.gid, n.xform
                );
            }
        }
    }
}
