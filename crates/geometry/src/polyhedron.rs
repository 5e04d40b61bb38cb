//! Convex polyhedra with half-space clipping.
//!
//! A Voronoi cell is constructed by starting from a bounding box and
//! repeatedly clipping it by the perpendicular bisector planes between the
//! cell's site and its candidate neighbors (the Voro++ approach). Every face
//! remembers which neighbor's bisector created it, which later gives the
//! cell-adjacency graph (used for connected-component void finding) for free.
//!
//! While it is clipped, a polyhedron is its planes — the six box planes,
//! then every plane that cut it, in clip order — and its vertices, each
//! named by the three planes it lies on. A clip removes the vertices outside
//! its plane and puts one new vertex on every edge that leaves them; there
//! are no faces to rewrite. [`ConvexPolyhedron::build_faces`] builds them
//! once, after the last clip: every face's vertex loop is a slice of one
//! shared index buffer, back to back in plane order.

use std::collections::HashMap;

use crate::measures::{polygon_area_by, tetra_volume_signed};
use crate::plane::Plane;
use crate::vec3::Vec3;
use crate::Aabb;

/// One polygonal face of a convex polyhedron. Its ordered vertex loop
/// (counterclockwise seen from outside) is
/// [`ConvexPolyhedron::face_verts`].
#[derive(Debug, Clone, Copy)]
pub struct Face {
    /// Supporting plane, oriented with the normal pointing out of the cell.
    pub plane: Plane,
    /// Global id of the neighbor site whose bisector generated this face;
    /// `None` for faces of the initial bounding volume.
    pub neighbor: Option<u64>,
    /// Where the loop starts in [`ConvexPolyhedron::loops`].
    start: u32,
    /// Number of vertices in the loop.
    len: u32,
}

/// Result of clipping by one half-space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipResult {
    /// The polyhedron lies entirely inside; nothing changed.
    Unchanged,
    /// The plane cut the polyhedron; a new face was created.
    Clipped,
    /// Nothing remains on the inside.
    Empty,
}

/// A convex polyhedron (vertices + polygonal faces with outward planes).
/// `verts`, `faces` and `loops` are built by
/// [`build_faces`](Self::build_faces); [`clip_with`](Self::clip_with)
/// empties them.
#[derive(Debug, Clone, Default)]
pub struct ConvexPolyhedron {
    /// Distinct vertex positions, numbered by first reference in `loops`.
    pub verts: Vec<Vec3>,
    pub faces: Vec<Face>,
    /// Every face's vertex loop, back to back in face order.
    pub loops: Vec<u32>,
    /// Every plane that cut the polyhedron, box planes first.
    planes: Vec<(Plane, Option<u64>)>,
    /// Per vertex: its position, and the three planes it lies on
    /// counterclockwise seen from outside. Walking face `a`'s loop
    /// counterclockwise, the vertex after `[a, b, c]` is the one whose
    /// rotation at `a` starts `[a, c, …]`, along the edge of `a` and `c`.
    at: Vec<Vec3>,
    named: Vec<[u32; 3]>,
    /// Whether two vertices may share a position (see `clip_with`).
    aliased: bool,
}

/// The edges at a vertex named `[a, b, c]`, plane pairs packed high and low
/// in a `u64`; the vertex at the other end lists one `rotate_left(32)`.
fn edges_of([a, b, c]: [u32; 3]) -> [u64; 3] {
    let e = |p: u32, q: u32| (p as u64) << 32 | q as u64;
    [e(a, b), e(b, c), e(c, a)]
}

/// Everything a clip and a face build need besides the polyhedron. A hot
/// caller (the per-cell Voronoi kernel clips tens of planes per cell,
/// millions of cells per run) keeps one per thread, and after warm-up
/// neither allocates. It also lends polyhedra out
/// ([`from_aabb`](Self::from_aabb)) and takes them back
/// ([`recycle`](Self::recycle)), so one cell's storage is the next cell's.
/// Results are bit-identical to fresh buffers.
#[derive(Default)]
pub struct ClipScratch {
    /// A clip's removed vertices, their edges (three each) and new vertices.
    outs: Vec<u32>,
    edges: Vec<u64>,
    fresh: Vec<(Vec3, [u32; 3])>,
    /// Face building: every vertex rotation `[vertex, x, y]` at plane `f`
    /// (the vertex named `[f, x, y]` turned to start at `f`), bucketed by
    /// plane: bucket `f` is `rotations[starts[f]..starts[f + 1]]`. And per
    /// vertex, its number in `verts`.
    starts: Vec<u32>,
    rotations: Vec<[u32; 3]>,
    number: Vec<u32>,
    /// Polyhedra handed back through [`recycle`](Self::recycle).
    spare: Vec<ConvexPolyhedron>,
}

impl ClipScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// A box to clip, in the storage of a recycled polyhedron when there is
    /// one. Its faces are not built.
    pub fn from_aabb(&mut self, b: &Aabb) -> ConvexPolyhedron {
        let mut poly = self.spare.pop().unwrap_or_default();
        poly.set_aabb(b);
        poly
    }

    /// Take `poly`'s storage back for the next [`from_aabb`](Self::from_aabb).
    pub fn recycle(&mut self, poly: ConvexPolyhedron) {
        self.spare.push(poly);
    }
}

impl ConvexPolyhedron {
    /// Axis-aligned box as a polyhedron; all faces carry `neighbor: None`.
    pub fn from_aabb(b: &Aabb) -> Self {
        let mut poly = Self::default();
        poly.set_aabb(b);
        poly.build_faces(&mut ClipScratch::default());
        poly
    }

    fn set_aabb(&mut self, b: &Aabb) {
        self.clear();
        // Planes x-, x+, y-, y+, z-, z+. Corner `i` takes the high side on
        // axis `k` when bit `k` is set, so lies on planes `x`, `2 + y` and
        // `4 + z`, which run counterclockwise when an odd number are high.
        for k in 0..6 {
            let (axis, high) = (k / 2, k % 2 == 1);
            let mut n = Vec3::ZERO;
            n[axis] = if high { 1.0 } else { -1.0 };
            let d = if high { b.max[axis] } else { -b.min[axis] };
            self.planes.push((Plane { n, d }, None));
        }
        for i in 0..8u32 {
            let side = |k: u32| [b.min, b.max][(i >> k & 1) as usize][k as usize];
            self.at.push(Vec3::new(side(0), side(1), side(2)));
            let (x, y, z) = (i & 1, 2 + (i >> 1 & 1), 4 + (i >> 2 & 1));
            let odd = i.count_ones() % 2 == 1;
            self.named.push(if odd { [x, y, z] } else { [x, z, y] });
        }
    }

    fn clear_faces(&mut self) {
        self.verts.clear();
        self.faces.clear();
        self.loops.clear();
    }

    fn clear(&mut self) {
        self.clear_faces();
        self.planes.clear();
        self.at.clear();
        self.named.clear();
        self.aliased = false;
    }

    pub fn is_empty(&self) -> bool {
        self.verts.len() < 4 || self.faces.len() < 4
    }

    /// The ordered vertex loop of `face`.
    #[inline]
    pub fn face_verts(&self, face: &Face) -> &[u32] {
        &self.loops[face.start as usize..][..face.len as usize]
    }

    /// Clip by the inside half-space of `plane` (`n·x <= d`), tagging any
    /// newly created face with `neighbor`, and build the faces if it cut.
    ///
    /// `eps` is the absolute tolerance for classifying a vertex as lying on
    /// the plane; pass a value small relative to the cell size (e.g.
    /// [`crate::EPS`] times the domain scale).
    pub fn clip(&mut self, plane: &Plane, neighbor: Option<u64>, eps: f64) -> ClipResult {
        let mut scratch = ClipScratch::default();
        let result = self.clip_with(plane, neighbor, eps, &mut scratch);
        if result == ClipResult::Clipped {
            self.build_faces(&mut scratch);
        }
        result
    }

    /// [`clip`](Self::clip) with caller-provided scratch buffers (see
    /// [`ClipScratch`]) and no face build: a plane that cuts leaves `verts`,
    /// `faces` and `loops` empty until [`build_faces`](Self::build_faces).
    ///
    /// A vertex farther than `eps` outside is removed, and each edge from it
    /// to a kept vertex gets a new vertex where the edge's two planes meet
    /// `plane`. When the kept end lies on the plane (within `eps`), the new
    /// vertex takes its position instead: the cut adds no vertex beside one
    /// already on the plane, and the faces collapse the pair into one.
    pub fn clip_with(
        &mut self,
        plane: &Plane,
        neighbor: Option<u64>,
        eps: f64,
        scratch: &mut ClipScratch,
    ) -> ClipResult {
        // Most clips of a converging cell change nothing: learn that from an
        // `|` over every vertex, with no exit to stop vectorisation.
        let out = |p: Vec3| plane.signed_distance(p) > eps;
        if !self.at.iter().fold(false, |any, &p| any | out(p)) {
            return ClipResult::Unchanged;
        }
        let (outs, edges, fresh) = (&mut scratch.outs, &mut scratch.edges, &mut scratch.fresh);
        // A NaN distance passes neither test: the vertex stays, as if on the
        // plane.
        let on_plane = |d: f64| !(d > eps || d < -eps);
        outs.clear();
        let (mut any_in, mut any_on) = (false, false);
        for (i, &p) in self.at.iter().enumerate() {
            let d = plane.signed_distance(p);
            if d > eps {
                outs.push(i as u32);
            }
            any_in |= d < -eps;
            any_on |= on_plane(d);
        }
        if !any_in {
            self.clear();
            return ClipResult::Empty;
        }

        edges.clear();
        edges.extend(outs.iter().flat_map(|&i| edges_of(self.named[i as usize])));
        let (at, named, new) = (&self.at, &self.named, self.planes.len() as u32);
        fresh.clear();
        for (k, &e) in edges.iter().enumerate() {
            let back = e.rotate_left(32);
            if edges.contains(&back) {
                continue; // both ends removed
            }
            let kept_end = || {
                let w = named.iter().position(|&t| edges_of(t).contains(&back));
                w.map(|w| at[w])
            };
            let on = any_on.then(kept_end).flatten();
            let on = on.filter(|&w| on_plane(plane.signed_distance(w)));
            let (a, b) = ((e >> 32) as u32, e as u32);
            let (pa, pb) = (&self.planes[a as usize].0, &self.planes[b as usize].0);
            let p = on.unwrap_or_else(|| pa.intersect_planes(pb, plane));
            let solved = on.is_none() && p.is_finite();
            let p = if solved || on.is_some() {
                p
            } else {
                // Degenerate solve: interpolate along the edge instead.
                let v = at[outs[k / 3] as usize];
                kept_end().map_or(v, |w| {
                    let t = plane.intersect_segment(v, w).unwrap_or(0.5);
                    v.lerp(w, t.clamp(0.0, 1.0))
                })
            };
            self.aliased |= !solved;
            fresh.push((p, [a, b, new]));
        }

        // The last vertices fill the removed ones' slots; the new ones follow.
        for &i in outs.iter().rev() {
            self.at.swap_remove(i as usize);
            self.named.swap_remove(i as usize);
        }
        for &(p, t) in fresh.iter() {
            self.at.push(p);
            self.named.push(t);
        }
        self.planes.push((*plane, neighbor));
        self.clear_faces();
        ClipResult::Clipped
    }

    /// Build `verts`, `faces` and `loops` from the planes and the named
    /// vertices: one face per plane that still has three distinct vertex
    /// positions, in plane order, each loop counterclockwise seen from
    /// outside, and the vertices numbered by first reference. A polyhedron
    /// left with fewer than four faces or vertices builds empty.
    pub fn build_faces(&mut self, scratch: &mut ClipScratch) {
        self.clear_faces();
        let (starts, rotations) = (&mut scratch.starts, &mut scratch.rotations);
        let (at, named, aliased) = (&self.at, &self.named, self.aliased);
        let (verts, faces, loops) = (&mut self.verts, &mut self.faces, &mut self.loops);

        // Counting sort of the rotations by plane, ascending vertex within a
        // bucket: count, end of each bucket, then fill backwards.
        let np = self.planes.len();
        starts.clear();
        starts.resize(np + 1, 0);
        for &p in named.iter().flatten() {
            starts[p as usize] += 1;
        }
        for p in 1..=np {
            starts[p] += starts[p - 1];
        }
        rotations.clear();
        rotations.resize(3 * named.len(), [0; 3]);
        for (i, &[a, b, c]) in named.iter().enumerate().rev() {
            for [f, x, y] in [[c, a, b], [b, c, a], [a, b, c]] {
                starts[f as usize] -= 1;
                rotations[starts[f as usize] as usize] = [i as u32, x, y];
            }
        }

        let number = &mut scratch.number;
        number.clear();
        number.resize(at.len(), u32::MAX);
        // Two vertices at one position are one: see `clip_with`.
        let same = |v: u32, w: u32| aliased && at[v as usize] == at[w as usize];
        for (f, &(plane, neighbor)) in self.planes.iter().enumerate() {
            // Walk the face from its first vertex: after `[f, x, y]` comes
            // the rotation that starts `[f, y, …]`.
            let bucket = &rotations[starts[f] as usize..starts[f + 1] as usize];
            let (start, mut k) = (loops.len(), 0);
            for _ in 0..bucket.len() {
                let [v, _, y] = bucket[k];
                if loops.len() == start || !same(loops[loops.len() - 1], v) {
                    loops.push(v);
                }
                match bucket.iter().position(|r| r[1] == y) {
                    Some(next) if next != 0 => k = next,
                    _ => break,
                }
            }
            while loops.len() - start > 1 && same(loops[start], loops[loops.len() - 1]) {
                loops.pop();
            }
            if loops.len() - start < 3 {
                loops.truncate(start);
                continue;
            }
            for v in &mut loops[start..] {
                let p = at[*v as usize];
                let n = &mut number[*v as usize];
                if *n == u32::MAX {
                    let twin = aliased.then(|| verts.iter().position(|&q| q == p));
                    *n = twin.flatten().unwrap_or_else(|| {
                        verts.push(p);
                        verts.len() - 1
                    }) as u32;
                }
                *v = *n;
            }
            let (start, len) = (start as u32, (loops.len() - start) as u32);
            faces.push(Face {
                plane,
                neighbor,
                start,
                len,
            });
        }
        if self.is_empty() {
            self.clear_faces();
        }
    }

    /// Volume via the divergence theorem (exact for the stored polygonal
    /// faces; positive for outward-oriented faces).
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        // Reference point inside (vertex mean) reduces cancellation.
        let r = self.vertex_mean();
        let mut v = 0.0;
        for face in &self.faces {
            let l = self.face_verts(face);
            let f0 = self.verts[l[0] as usize];
            for i in 1..l.len() - 1 {
                let fi = self.verts[l[i] as usize];
                let fj = self.verts[l[i + 1] as usize];
                v += tetra_volume_signed(r, f0, fi, fj);
            }
        }
        v
    }

    /// Total surface area.
    pub fn surface_area(&self) -> f64 {
        self.faces
            .iter()
            .map(|f| {
                let l = self.face_verts(f);
                polygon_area_by(l.len(), |i| self.verts[l[i] as usize])
            })
            .sum()
    }

    /// Volume-weighted centroid; falls back to the vertex mean for
    /// (near-)degenerate polyhedra.
    pub fn centroid(&self) -> Vec3 {
        let r = self.vertex_mean();
        let mut vol = 0.0;
        let mut c = Vec3::ZERO;
        for face in &self.faces {
            let l = self.face_verts(face);
            let f0 = self.verts[l[0] as usize];
            for i in 1..l.len() - 1 {
                let fi = self.verts[l[i] as usize];
                let fj = self.verts[l[i + 1] as usize];
                let v = tetra_volume_signed(r, f0, fi, fj);
                vol += v;
                c += (r + f0 + fi + fj) * (v / 4.0);
            }
        }
        if vol.abs() > 1e-300 {
            c / vol
        } else {
            r
        }
    }

    /// Arithmetic mean of the vertices.
    pub fn vertex_mean(&self) -> Vec3 {
        let mut c = Vec3::ZERO;
        for &v in &self.verts {
            c += v;
        }
        c / self.verts.len().max(1) as f64
    }

    /// Tight axis-aligned bounding box of the vertices, together with the
    /// farthest squared vertex distance from `p` (one fused pass — the
    /// cell kernel needs both after every mutating clip, before the faces
    /// are built). Degenerate (point-at-`p`) when the polyhedron has no
    /// vertices.
    pub fn vertex_aabb_and_max_dist2(&self, p: Vec3) -> (Aabb, f64) {
        let (mut lo, mut hi) = (p, p);
        let mut max_d2 = 0.0f64;
        // `a < b` selects rather than `f64::min`: one instruction, and a NaN
        // coordinate is skipped all the same.
        let min = |a: f64, b: f64| if a < b { a } else { b };
        let max = |a: f64, b: f64| if a > b { a } else { b };
        for &v in &self.at {
            lo.x = min(v.x, lo.x);
            lo.y = min(v.y, lo.y);
            lo.z = min(v.z, lo.z);
            hi.x = max(v.x, hi.x);
            hi.y = max(v.y, hi.y);
            hi.z = max(v.z, hi.z);
            max_d2 = max(v.dist2(p), max_d2);
        }
        (Aabb::new(lo, hi), max_d2)
    }

    /// Maximum pairwise squared distance between vertices (cell "diameter"²).
    /// Used by the paper's conservative early volume cull.
    pub fn max_pairwise_dist2(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.verts.len() {
            for j in i + 1..self.verts.len() {
                best = best.max(self.verts[i].dist2(self.verts[j]));
            }
        }
        best
    }

    /// A watertight convex polyhedron satisfies Euler's formula
    /// `V - E + F = 2` and every edge is shared by exactly two faces.
    pub fn check_closed(&self) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
        for face in &self.faces {
            let l = self.face_verts(face);
            for i in 0..l.len() {
                let (a, b) = (l[i], l[(i + 1) % l.len()]);
                *counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        let all_twice = counts.values().all(|&c| c == 2);
        let v = self.verts.len() as i64;
        let e = counts.len() as i64;
        let f = self.faces.len() as i64;
        all_twice && v - e + f == 2
    }

    /// `true` when `p` lies inside or on every face's half-space.
    pub fn contains(&self, p: Vec3, eps: f64) -> bool {
        self.faces.iter().all(|f| f.plane.signed_distance(p) <= eps)
    }

    /// Ids of the neighbor sites whose bisectors form the faces.
    pub fn neighbor_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.faces.iter().filter_map(|f| f.neighbor)
    }

    /// Centroid of one face's vertex loop (the mean of its vertices).
    pub fn face_centroid(&self, face: &Face) -> Vec3 {
        let l = self.face_verts(face);
        let mut c = Vec3::ZERO;
        for &v in l {
            c += self.verts[v as usize];
        }
        c / l.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EPS;

    fn unit_cube() -> ConvexPolyhedron {
        ConvexPolyhedron::from_aabb(&Aabb::cube(1.0))
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    /// Same vertices, faces, loops and measures, bit for bit.
    fn assert_same_bits(a: &ConvexPolyhedron, b: &ConvexPolyhedron) {
        let vb = |p: &ConvexPolyhedron| p.verts.iter().map(|&v| bits(v)).collect::<Vec<_>>();
        assert_eq!(vb(a), vb(b));
        assert_eq!(a.faces.len(), b.faces.len());
        for (fa, fb) in a.faces.iter().zip(&b.faces) {
            assert_eq!(a.face_verts(fa), b.face_verts(fb));
            assert_eq!(fa.neighbor, fb.neighbor);
            assert_eq!(bits(fa.plane.n), bits(fb.plane.n));
            assert_eq!(fa.plane.d.to_bits(), fb.plane.d.to_bits());
        }
        assert_eq!(a.volume().to_bits(), b.volume().to_bits());
        assert_eq!(a.surface_area().to_bits(), b.surface_area().to_bits());
    }

    #[test]
    fn cube_measures() {
        let c = unit_cube();
        assert!((c.volume() - 1.0).abs() < 1e-12);
        assert!((c.surface_area() - 6.0).abs() < 1e-12);
        assert!((c.centroid() - Vec3::splat(0.5)).norm() < 1e-12);
        assert!(c.check_closed());
        // 6 quads: each of the 12 edges lies in two loops
        assert_eq!(c.faces.len(), 6);
        assert_eq!(c.loops.len(), 24);
        assert!(c.faces.iter().all(|f| c.face_verts(f).len() == 4));
    }

    #[test]
    fn clip_keeps_half_the_cube() {
        let mut c = unit_cube();
        let plane = Plane::from_point_normal(Vec3::splat(0.5), Vec3::new(1.0, 0.0, 0.0));
        let r = c.clip(&plane, Some(42), EPS);
        assert_eq!(r, ClipResult::Clipped);
        assert!((c.volume() - 0.5).abs() < 1e-12);
        assert!((c.surface_area() - 4.0).abs() < 1e-12);
        assert!(c.check_closed());
        assert_eq!(c.neighbor_ids().collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn clip_outside_is_noop() {
        let mut c = unit_cube();
        let plane = Plane::from_point_normal(Vec3::splat(2.0), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(c.clip(&plane, None, EPS), ClipResult::Unchanged);
        assert!((c.volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_everything_empties() {
        let mut c = unit_cube();
        let plane = Plane::from_point_normal(Vec3::splat(-1.0), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(c.clip(&plane, None, EPS), ClipResult::Empty);
        assert!(c.is_empty());
        assert!(c.loops.is_empty());
        assert_eq!(c.volume(), 0.0);
    }

    #[test]
    fn clip_corner_produces_triangle_face() {
        let mut c = unit_cube();
        // Cut off the corner at the origin.
        let n = Vec3::splat(-1.0).normalized().unwrap();
        let plane = Plane::from_point_normal(Vec3::new(0.25, 0.0, 0.0), n);
        assert_eq!(c.clip(&plane, Some(7), EPS), ClipResult::Clipped);
        // removed tetra corner: volume 0.25³/6
        let expect = 1.0 - 0.25f64.powi(3) / 6.0;
        assert!((c.volume() - expect).abs() < 1e-12, "vol {}", c.volume());
        assert!(c.check_closed());
        // New face is a triangle tagged with the neighbor id.
        let new_face = c.faces.iter().find(|f| f.neighbor == Some(7)).unwrap();
        assert_eq!(c.face_verts(new_face).len(), 3);
    }

    #[test]
    fn clip_through_vertices_keeps_them_and_creates_none() {
        // The plane x = y contains the cube edges x = y = 0 and x = y = 1,
        // so four vertices are On. The faces x = 1 and y = 0 keep only two
        // of them each and disappear; the closing face is the four On
        // vertices, and no vertex is interpolated.
        let mut c = unit_cube();
        let n = Vec3::new(1.0, -1.0, 0.0).normalized().unwrap();
        let plane = Plane::from_point_normal(Vec3::ZERO, n);
        assert_eq!(c.clip(&plane, Some(1), EPS), ClipResult::Clipped);
        assert_eq!(c.verts.len(), 6);
        for v in &c.verts {
            assert!([v.x, v.y, v.z].iter().all(|&x| x == 0.0 || x == 1.0), "{v}");
        }
        assert_eq!(c.faces.len(), 5);
        let gone = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0)];
        assert!(c.faces.iter().all(|f| !gone.contains(&f.plane.n)));
        let closing = c.faces.last().unwrap();
        assert_eq!(closing.neighbor, Some(1));
        assert_eq!(c.face_verts(closing).len(), 4);
        assert!((c.volume() - 0.5).abs() < 1e-12, "vol {}", c.volume());
        assert!(c.check_closed());
    }

    #[test]
    fn clip_through_an_edge_drops_the_faces_it_leaves_with_two_vertices() {
        // A plane through the cube edge x = y = 0 (On) that cuts the face
        // y = 1 at x = 1/3: the face y = 0 keeps only its two On vertices
        // and goes, the face x = 1 lies wholly outside and goes, the face
        // x = 0 is untouched, and two vertices are created where the plane
        // crosses the edges of y = 1 with z = 0 and z = 1.
        let mut c = unit_cube();
        // Corner `i` of the unit cube: bits 0, 1, 2 set x, y, z to 1.
        let v = |i: usize| Vec3::new((i & 1) as f64, (i >> 1 & 1) as f64, (i >> 2 & 1) as f64);
        let n = Vec3::new(3.0, -1.0, 0.0).normalized().unwrap();
        let plane = Plane::from_point_normal(Vec3::ZERO, n);
        assert_eq!(c.clip(&plane, Some(9), EPS), ClipResult::Clipped);
        // Vertices numbered by first reference: the untouched face x = 0
        // (loop 0 → 4 → 6 → 2), then the face y = 1's two new vertices.
        let kept = [v(0), v(4), v(6), v(2)];
        assert_eq!(
            c.verts[..4].iter().map(|&p| bits(p)).collect::<Vec<_>>(),
            kept.iter().map(|&p| bits(p)).collect::<Vec<_>>()
        );
        let cuts = [
            Vec3::new(1.0 / 3.0, 1.0, 1.0),
            Vec3::new(1.0 / 3.0, 1.0, 0.0),
        ];
        assert_eq!(c.verts.len(), 6);
        for (&got, want) in c.verts[4..].iter().zip(cuts) {
            assert!((got - want).norm() < 1e-15, "{got} vs {want}");
        }
        let loops: Vec<&[u32]> = c.faces.iter().map(|f| c.face_verts(f)).collect();
        assert_eq!(
            loops[..4],
            [&[0, 1, 2, 3][..], &[3, 2, 4, 5], &[0, 3, 5], &[1, 4, 2]]
        );
        assert_eq!(c.faces.len(), 5);
        assert_eq!(loops[4].len(), 4);
        assert_eq!(c.faces[4].neighbor, Some(9));
        assert!((c.volume() - 1.0 / 6.0).abs() < 1e-12, "vol {}", c.volume());
        assert!(c.check_closed());
    }

    #[test]
    fn sequential_bisector_clips_build_voronoi_cell() {
        // Site at the center of a 3x3x3 lattice: its Voronoi cell must be the
        // unit cube centered on it.
        let site = Vec3::splat(1.5);
        let mut cell = ConvexPolyhedron::from_aabb(&Aabb::cube(3.0));
        let mut id = 0u64;
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    let q = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5);
                    if q.dist2(site) > 1e-12 {
                        let b = Plane::bisector(site, q).unwrap();
                        cell.clip(&b, Some(id), EPS);
                    }
                    id += 1;
                }
            }
        }
        assert!((cell.volume() - 1.0).abs() < 1e-9, "vol {}", cell.volume());
        assert!((cell.surface_area() - 6.0).abs() < 1e-9);
        assert!((cell.centroid() - site).norm() < 1e-9);
        assert!(cell.check_closed());
        // 6 face-adjacent neighbors survive; corner/edge bisectors are cut away.
        assert_eq!(cell.neighbor_ids().count(), 6);
        assert!(cell.contains(site, EPS));
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_clips() {
        // Voronoi-like cells of a jittered and an exact 3³ lattice (the exact
        // one puts cell vertices on later bisectors), each built twice:
        // from `ConvexPolyhedron::from_aabb` with a fresh scratch per clip,
        // and through one scratch whose start boxes reuse the storage of
        // the cells recycled before them.
        let cell = |site: Vec3,
                    offset: Vec3,
                    mut poly: ConvexPolyhedron,
                    mut shared: Option<&mut ClipScratch>| {
            let mut id = 0u64;
            for i in 0..3 {
                for j in 0..3 {
                    for k in 0..3 {
                        let q = Vec3::new(i as f64, j as f64, k as f64) + offset;
                        if q.dist2(site) > 1e-12 {
                            let b = Plane::bisector(site, q).unwrap();
                            match shared.as_deref_mut() {
                                Some(s) => poly.clip_with(&b, Some(id), EPS, s),
                                None => poly.clip_with(&b, Some(id), EPS, &mut ClipScratch::new()),
                            };
                        }
                        id += 1;
                    }
                }
            }
            match shared {
                Some(s) => poly.build_faces(s),
                None => poly.build_faces(&mut ClipScratch::new()),
            }
            poly
        };
        let cells = [
            (Vec3::new(1.4, 1.6, 1.5), Vec3::new(0.47, 0.53, 0.5)),
            (Vec3::new(1.1, 0.7, 1.9), Vec3::new(0.47, 0.53, 0.5)),
            (Vec3::splat(1.5), Vec3::splat(0.5)),
            (Vec3::new(0.5, 1.5, 2.5), Vec3::splat(0.5)),
        ];
        let start = Aabb::cube(3.0);
        let mut shared = ClipScratch::new();
        // Twice over, so the second sweep runs entirely on warm, recycled
        // storage.
        for _ in 0..2 {
            for &(site, offset) in &cells {
                let fresh = cell(site, offset, ConvexPolyhedron::from_aabb(&start), None);
                let poly = shared.from_aabb(&start);
                let reused = cell(site, offset, poly, Some(&mut shared));
                assert_same_bits(&fresh, &reused);
                assert!(reused.check_closed());
                shared.recycle(reused);
            }
        }
    }

    #[test]
    fn compaction_drops_unused_vertices() {
        let mut c = unit_cube();
        let plane = Plane::from_point_normal(Vec3::splat(0.5), Vec3::new(0.0, 0.0, 1.0));
        c.clip(&plane, None, EPS);
        // Half-cube has 8 vertices again (4 old bottom + 4 new cuts).
        assert_eq!(c.verts.len(), 8);
        assert!(c.check_closed());
    }

    #[test]
    fn max_distances() {
        let c = unit_cube();
        let (bb, d2) = c.vertex_aabb_and_max_dist2(Vec3::ZERO);
        assert!((d2 - 3.0).abs() < 1e-12);
        assert_eq!((bb.min, bb.max), (Vec3::ZERO, Vec3::splat(1.0)));
        assert!((c.max_pairwise_dist2() - 3.0).abs() < 1e-12);
    }
}
