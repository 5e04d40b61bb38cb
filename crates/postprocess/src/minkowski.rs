//! Minkowski functionals of cell components (§III-D).
//!
//! For a component (a union of Voronoi cells), the four basic functionals
//! on its boundary surface:
//!
//! * `V0` — volume: sum of member cell volumes,
//! * `V1` — surface area: area of boundary faces (faces whose far side is
//!   not in the component),
//! * `V2` — integrated mean curvature: `½ Σ_edges ℓ (π − θ)` over boundary
//!   edges with interior dihedral angle θ,
//! * `V3` — Euler characteristic of the boundary surface (`V − E + F`),
//!   from which the genus is `1 − χ/2` per closed shell.
//!
//! Derived metrics follow SURFGEN (Sheth et al. 2002, the paper's [21]):
//! thickness `T = 3 V0 / V1`, breadth `B = V1 / V2`, length
//! `L = V2 / 4π`.
//!
//! The boundary surface is stitched across blocks and the periodic seam
//! by vertex *numbers*. The first time a boundary face reaches a block
//! vertex, the vertex is wrapped into the domain and quantized to 1e-6;
//! that key gets a global number, cached in a per-block slot, so each
//! block vertex is quantized once however many faces share it. A boundary
//! edge is the pair of its ends' numbers; the first face to list it
//! leaves its length and normal, the second folds them into the edge's V2
//! term. V2 sums those terms in the order the edges were first listed
//! (block, cell, face, corner), so it does not depend on hashing.

use std::collections::HashSet;

use diy::hash::{FxHashMap, FxHashSet};

use geometry::measures::{dihedral_angle, polygon_area, polygon_normal};
use geometry::{Aabb, Vec3};
use tess::{MeshBlock, NO_NEIGHBOR};

/// Minkowski functionals and derived metrics of one component.
#[derive(Debug, Clone, Copy)]
pub struct Minkowski {
    pub v0_volume: f64,
    pub v1_area: f64,
    pub v2_curvature: f64,
    pub v3_euler: i64,
    pub genus: f64,
    pub thickness: f64,
    pub breadth: f64,
    pub length: f64,
    /// Boundary faces that failed to pair along an edge (diagnostic; should
    /// be 0 for a watertight component).
    pub unmatched_edges: u64,
}

/// A block vertex's slot before any boundary face has reached it.
const UNNUMBERED: u32 = u32::MAX;

/// Global vertex numbers: one per distinct 1e-6 grid key, handed out in
/// the order boundary faces first reach the keys.
struct Numbering {
    domain: Aabb,
    /// The box extent in grid steps per axis; 0 leaves the axis unfolded.
    steps: [i64; 3],
    by_key: FxHashMap<[i64; 3], u32>,
    /// Per number: whether it ends a non-degenerate boundary edge (the
    /// vertices `χ` counts).
    on_edge: Vec<bool>,
    /// Per vertex of the current block: its number, or [`UNNUMBERED`].
    slot: Vec<u32>,
}

impl Numbering {
    fn new(domain: &Aabb) -> Self {
        let e = domain.extent();
        Numbering {
            domain: *domain,
            steps: [e.x, e.y, e.z].map(|len| (len * 1e6).round() as i64),
            by_key: FxHashMap::default(),
            on_edge: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// A position's grid key: wrapped into the periodic box, scaled by
    /// 1e6, rounded, and folded by the rounded extent (a wrap can land
    /// exactly on the upper edge after rounding).
    fn key(&self, p: Vec3) -> [i64; 3] {
        let w = self.domain.wrap(p);
        let fold = |x: f64, lo: f64, n: i64| {
            let q = ((x - lo) * 1e6).round() as i64;
            if n > 0 {
                q.rem_euclid(n)
            } else {
                q
            }
        };
        let lo = self.domain.min;
        [
            fold(w.x, lo.x, self.steps[0]),
            fold(w.y, lo.y, self.steps[1]),
            fold(w.z, lo.z, self.steps[2]),
        ]
    }

    /// Start a block with `verts` vertices.
    fn enter_block(&mut self, verts: usize) {
        self.slot.clear();
        self.slot.resize(verts, UNNUMBERED);
    }

    /// The number of the current block's vertex `v` at position `p`.
    fn of(&mut self, v: u32, p: Vec3) -> u32 {
        let v = v as usize;
        if self.slot[v] == UNNUMBERED {
            let next = self.on_edge.len() as u32;
            let number = *self.by_key.entry(self.key(p)).or_insert(next);
            if number == next {
                self.on_edge.push(false);
            }
            self.slot[v] = number;
        }
        self.slot[v]
    }
}

/// One boundary edge as the faces listing it leave it. A watertight
/// surface lists every edge exactly twice; any other count is an
/// unmatched edge.
struct Edge {
    faces: u32,
    /// After one face, that face's edge length; after two, the edge's V2
    /// term `½ ℓ (π − θ)` with `ℓ` the mean of the two lengths.
    value: f64,
    /// The first face's unit normal.
    normal: Vec3,
}

impl Edge {
    fn add(&mut self, len: f64, normal: Vec3) {
        if self.faces == 1 {
            let ell = (self.value + len) / 2.0;
            let theta = dihedral_angle(self.normal, normal);
            self.value = 0.5 * ell * (std::f64::consts::PI - theta);
        }
        self.faces += 1;
    }
}

/// Compute the functionals for the component consisting of `sites`.
///
/// `domain` is the periodic box; boundary vertices are wrapped into it so
/// faces meeting across the periodic seam pair up.
pub fn minkowski_functionals(
    blocks: &[MeshBlock],
    sites: &HashSet<u64>,
    domain: &Aabb,
) -> Minkowski {
    // Every cell and every face of a member asks for membership: one
    // FxHash copy of the set answers those for less than SipHash would.
    let sites: FxHashSet<u64> = sites.iter().copied().collect();
    let mut v0 = 0.0;
    let mut v1 = 0.0;

    let mut numbers = Numbering::new(domain);
    // Boundary edges in first-listed order, and their index by the pair of
    // end numbers (low number in the high half).
    let mut edges: Vec<Edge> = Vec::new();
    let mut edge_of: FxHashMap<u64, u32> = FxHashMap::default();
    let mut boundary_faces: u64 = 0;
    let mut pts: Vec<Vec3> = Vec::new();
    let mut ends: Vec<u32> = Vec::new();

    for b in blocks {
        let mut entered = false;
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
                if !entered {
                    numbers.enter_block(b.verts.len());
                    entered = true;
                }
                ends.clear();
                ends.extend(f.verts.iter().zip(&pts).map(|(&v, &p)| numbers.of(v, p)));
                for i in 0..ends.len() {
                    let j = (i + 1) % ends.len();
                    let (ga, gb) = (ends[i], ends[j]);
                    if ga == gb {
                        continue; // degenerate sliver edge
                    }
                    numbers.on_edge[ga as usize] = true;
                    numbers.on_edge[gb as usize] = true;
                    let key = (ga.min(gb) as u64) << 32 | ga.max(gb) as u64;
                    let len = pts[i].dist(pts[j]);
                    let next = edges.len() as u32;
                    let e = *edge_of.entry(key).or_insert(next);
                    if e == next {
                        edges.push(Edge {
                            faces: 1,
                            value: len,
                            normal: n,
                        });
                    } else {
                        edges[e as usize].add(len, n);
                    }
                }
            }
        }
    }

    let mut v2 = 0.0;
    let mut unmatched = 0u64;
    for e in &edges {
        if e.faces == 2 {
            v2 += e.value;
        } else {
            unmatched += 1;
        }
    }

    let verts = numbers.on_edge.iter().filter(|&&on| on).count() as i64;
    let euler = verts - edges.len() as i64 + boundary_faces as i64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use tess::TessParams;

    fn lattice(n: usize) -> Vec<(u64, geometry::Vec3)> {
        (0..n * n * n)
            .map(|idx| {
                let i = idx % n;
                let j = (idx / n) % n;
                let k = idx / (n * n);
                (
                    idx as u64,
                    Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
                )
            })
            .collect()
    }

    fn lattice_tessellation(n: usize) -> Vec<MeshBlock> {
        let (block, _) = tess::tessellate_serial(
            &lattice(n),
            Aabb::cube(n as f64),
            [true; 3],
            &TessParams::default().with_ghost(2.0),
        );
        vec![block]
    }

    #[test]
    fn single_cubic_cell() {
        let blocks = lattice_tessellation(5);
        // component = the single center cell (a unit cube)
        let center = 2 + 5 * (2 + 5 * 2);
        let sites: HashSet<u64> = [center as u64].into_iter().collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(5.0));
        assert!((m.v0_volume - 1.0).abs() < 1e-9);
        assert!((m.v1_area - 6.0).abs() < 1e-9);
        // cube: C = π(a+b+c) = 3π
        assert!(
            (m.v2_curvature - 3.0 * PI).abs() < 1e-6,
            "V2 {}",
            m.v2_curvature
        );
        assert_eq!(m.v3_euler, 2);
        assert!(m.genus.abs() < 1e-12);
        assert!((m.thickness - 0.5).abs() < 1e-9); // 3V/S = 3/6
        assert!((m.breadth - 6.0 / (3.0 * PI)).abs() < 1e-6);
        assert!((m.length - 0.75).abs() < 1e-6); // 3π/4π
        assert_eq!(m.unmatched_edges, 0);
    }

    #[test]
    fn two_cell_box() {
        let blocks = lattice_tessellation(5);
        // two x-adjacent center cells → a 2×1×1 box
        let a = 2 + 5 * (2 + 5 * 2);
        let b = 3 + 5 * (2 + 5 * 2);
        let sites: HashSet<u64> = [a as u64, b as u64].into_iter().collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(5.0));
        assert!((m.v0_volume - 2.0).abs() < 1e-9);
        assert!((m.v1_area - 10.0).abs() < 1e-9);
        // box: C = π(a+b+c) = π(2+1+1) = 4π
        assert!(
            (m.v2_curvature - 4.0 * PI).abs() < 1e-6,
            "V2 {}",
            m.v2_curvature
        );
        assert_eq!(m.v3_euler, 2);
        assert_eq!(m.unmatched_edges, 0);
    }

    #[test]
    fn l_shaped_component_has_concave_edge() {
        let blocks = lattice_tessellation(5);
        // L-shape: cells (2,2,2), (3,2,2), (2,3,2)
        let id = |x: usize, y: usize, z: usize| (x + 5 * (y + 5 * z)) as u64;
        let sites: HashSet<u64> = [id(2, 2, 2), id(3, 2, 2), id(2, 3, 2)]
            .into_iter()
            .collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(5.0));
        assert!((m.v0_volume - 3.0).abs() < 1e-9);
        assert!((m.v1_area - 14.0).abs() < 1e-9);
        // Steiner for polyconvex L-shape: convex edges minus the one
        // re-entrant edge: C = ½[Σ ℓ(π−θ)] — check against direct count:
        // convex edges (θ=π/2): lengths total 19? Instead just require
        // C < sum for 3 separate cubes and > single cube.
        assert!(m.v2_curvature < 3.0 * 3.0 * PI);
        assert!(m.v2_curvature > 3.0 * PI);
        assert_eq!(m.v3_euler, 2, "L-shape boundary is a sphere");
        assert_eq!(m.unmatched_edges, 0);
    }

    #[test]
    fn whole_periodic_box_has_no_boundary() {
        let blocks = lattice_tessellation(4);
        let sites: HashSet<u64> = (0..64u64).collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(4.0));
        assert!((m.v0_volume - 64.0).abs() < 1e-6);
        assert_eq!(m.v1_area, 0.0, "no boundary faces in a full periodic box");
        assert_eq!(m.v3_euler, 0);
    }

    #[test]
    fn two_calls_on_one_mesh_return_the_same_bits() {
        // jittered, so V2 sums edges of many lengths and angles, whose
        // total depends on the order they are added in
        let n = 6;
        let particles: Vec<(u64, Vec3)> = lattice(n)
            .into_iter()
            .map(|(id, p)| {
                let j = |k: u64| ((id * 2654435761 + k * 40503) % 1000) as f64 / 1000.0 - 0.5;
                (id, p + Vec3::new(j(1), j(2), j(3)) * 0.4)
            })
            .collect();
        let domain = Aabb::cube(n as f64);
        let (block, _) = tess::tessellate_serial(
            &particles,
            domain,
            [true; 3],
            &TessParams::default().with_ghost(2.0),
        );
        let blocks = vec![block];
        let sites: HashSet<u64> = (0..(n * n * n) as u64).filter(|id| id % 3 != 0).collect();
        let bits = |m: Minkowski| {
            (
                [
                    m.v0_volume,
                    m.v1_area,
                    m.v2_curvature,
                    m.genus,
                    m.thickness,
                    m.breadth,
                    m.length,
                ]
                .map(f64::to_bits),
                m.v3_euler,
                m.unmatched_edges,
            )
        };
        let first = bits(minkowski_functionals(&blocks, &sites, &domain));
        for _ in 0..4 {
            assert_eq!(bits(minkowski_functionals(&blocks, &sites, &domain)), first);
        }
    }

    #[test]
    fn cells_touching_along_one_edge() {
        // (1,1,2) and (2,2,2) share only the z-edge at x = y = 2: four
        // faces list it, so it is the one unmatched edge and adds no V2
        let blocks = lattice_tessellation(5);
        let id = |x: usize, y: usize, z: usize| (x + 5 * (y + 5 * z)) as u64;
        let sites: HashSet<u64> = [id(1, 1, 2), id(2, 2, 2)].into_iter().collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(5.0));
        assert!((m.v1_area - 12.0).abs() < 1e-9, "area {}", m.v1_area);
        assert_eq!(m.unmatched_edges, 1);
        // V = 8 + 8 − 2 shared, E = 12 + 12 − 1 shared, F = 6 + 6
        assert_eq!(m.v3_euler, 14 - 23 + 12);
        // two cubes' 3π, less each cube's π/4 along the shared edge
        assert!(
            (m.v2_curvature - 5.5 * PI).abs() < 1e-6,
            "V2 {}",
            m.v2_curvature
        );
    }

    #[test]
    fn cells_touching_at_one_vertex() {
        // (1,1,1) and (2,2,2) share only the vertex (2,2,2): every edge
        // still pairs, but the two surfaces are glued at one point
        let blocks = lattice_tessellation(5);
        let id = |x: usize, y: usize, z: usize| (x + 5 * (y + 5 * z)) as u64;
        let sites: HashSet<u64> = [id(1, 1, 1), id(2, 2, 2)].into_iter().collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(5.0));
        assert!((m.v1_area - 12.0).abs() < 1e-9, "area {}", m.v1_area);
        assert_eq!(m.unmatched_edges, 0);
        // V = 8 + 8 − 1 shared, E = 12 + 12, F = 6 + 6
        assert_eq!(m.v3_euler, 15 - 24 + 12);
        assert!(
            (m.v2_curvature - 6.0 * PI).abs() < 1e-6,
            "V2 {}",
            m.v2_curvature
        );
    }

    #[test]
    fn component_crossing_the_periodic_seam() {
        // cells (0,2,2) and (4,2,2) are adjacent across the x seam in a
        // periodic 5-box: the pair forms a 2×1×1 box
        let blocks = lattice_tessellation(5);
        let id = |x: usize, y: usize, z: usize| (x + 5 * (y + 5 * z)) as u64;
        let sites: HashSet<u64> = [id(0, 2, 2), id(4, 2, 2)].into_iter().collect();
        let m = minkowski_functionals(&blocks, &sites, &Aabb::cube(5.0));
        assert!((m.v0_volume - 2.0).abs() < 1e-9);
        assert!((m.v1_area - 10.0).abs() < 1e-9, "area {}", m.v1_area);
        assert_eq!(m.unmatched_edges, 0, "periodic wrap pairs seam edges");
        assert_eq!(m.v3_euler, 2);
    }
}
