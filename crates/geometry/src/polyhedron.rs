//! Convex polyhedra with half-space clipping.
//!
//! A Voronoi cell is constructed by starting from a bounding box and
//! repeatedly clipping it by the perpendicular bisector planes between the
//! cell's site and its candidate neighbors (the Voro++ approach). The
//! polyhedron is stored as a vertex array plus polygonal faces; every face
//! remembers which neighbor's bisector created it, which later gives the
//! cell-adjacency graph (used for connected-component void finding) for free.
//!
//! Storage is flat: every face's vertex loop is a slice of one shared index
//! buffer, back to back in face order. A clip writes the clipped loops into
//! a second buffer lent by [`ClipScratch`] and swaps the two: a face the
//! plane leaves whole is copied as a slice, and only the faces it cuts are
//! walked vertex by vertex.

use std::cmp::Ordering;
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
#[derive(Debug, Clone, Default)]
pub struct ConvexPolyhedron {
    pub verts: Vec<Vec3>,
    pub faces: Vec<Face>,
    /// Every face's vertex loop, back to back in face order.
    pub loops: Vec<u32>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    In,
    On,
    Out,
    /// An `On` vertex already gathered into the closing face; the face
    /// walk treats it as `On`.
    Gathered,
}

/// Everything one clip needs besides the polyhedron. A hot caller (the
/// per-cell Voronoi kernel clips tens of planes per cell, millions of cells
/// per run) keeps one per thread, and after warm-up no clip allocates. It
/// also lends polyhedra out ([`from_aabb`](Self::from_aabb)) and takes
/// them back ([`recycle`](Self::recycle)), so one cell's storage is the
/// next cell's. Results are bit-identical to a fresh-buffer clip.
#[derive(Default)]
pub struct ClipScratch {
    /// Per vertex: its side of the plane. Vertices the clip creates are `On`.
    classes: Vec<Class>,
    /// Edges this clip cut, as `(lower end, upper end, new vertex)`. A clip
    /// cuts a handful of edges, so a linear scan finds them.
    cuts: Vec<(u32, u32, u32)>,
    /// The closing face's vertices in first-appearance order, their angle
    /// keys, and the sorted order of their positions.
    closing: Vec<u32>,
    angles: Vec<f64>,
    order: Vec<u32>,
    /// The other halves of the polyhedron's loop and face double buffers.
    loops: Vec<u32>,
    faces: Vec<Face>,
    /// Compaction: old vertex index → new one, and the renumbered vertices.
    map: Vec<u32>,
    verts: Vec<Vec3>,
    /// Polyhedra handed back through [`recycle`](Self::recycle).
    spare: Vec<ConvexPolyhedron>,
}

impl ClipScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// [`ConvexPolyhedron::from_aabb`] in the storage of a recycled
    /// polyhedron, when there is one.
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
        poly
    }

    fn set_aabb(&mut self, b: &Aabb) {
        let (lo, hi) = (b.min, b.max);
        self.clear();
        self.verts.extend_from_slice(&[
            Vec3::new(lo.x, lo.y, lo.z), // 0
            Vec3::new(hi.x, lo.y, lo.z), // 1
            Vec3::new(lo.x, hi.y, lo.z), // 2
            Vec3::new(hi.x, hi.y, lo.z), // 3
            Vec3::new(lo.x, lo.y, hi.z), // 4
            Vec3::new(hi.x, lo.y, hi.z), // 5
            Vec3::new(lo.x, hi.y, hi.z), // 6
            Vec3::new(hi.x, hi.y, hi.z), // 7
        ]);
        // Loops are counterclockwise when viewed from outside the box.
        for (n, d, loop_) in [
            (Vec3::new(-1.0, 0.0, 0.0), -lo.x, [0, 4, 6, 2]),
            (Vec3::new(1.0, 0.0, 0.0), hi.x, [1, 3, 7, 5]),
            (Vec3::new(0.0, -1.0, 0.0), -lo.y, [0, 1, 5, 4]),
            (Vec3::new(0.0, 1.0, 0.0), hi.y, [2, 6, 7, 3]),
            (Vec3::new(0.0, 0.0, -1.0), -lo.z, [0, 2, 3, 1]),
            (Vec3::new(0.0, 0.0, 1.0), hi.z, [4, 5, 7, 6]),
        ] {
            self.faces.push(Face {
                plane: Plane { n, d },
                neighbor: None,
                start: self.loops.len() as u32,
                len: 4,
            });
            self.loops.extend_from_slice(&loop_);
        }
    }

    fn clear(&mut self) {
        self.verts.clear();
        self.faces.clear();
        self.loops.clear();
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
    /// newly created face with `neighbor`.
    ///
    /// `eps` is the absolute tolerance for classifying a vertex as lying on
    /// the plane; pass a value small relative to the cell size (e.g.
    /// [`crate::EPS`] times the domain scale).
    pub fn clip(&mut self, plane: &Plane, neighbor: Option<u64>, eps: f64) -> ClipResult {
        self.clip_with(plane, neighbor, eps, &mut ClipScratch::default())
    }

    /// [`clip`](Self::clip) with caller-provided scratch buffers; see
    /// [`ClipScratch`]. Bit-identical results, no steady-state allocation.
    pub fn clip_with(
        &mut self,
        plane: &Plane,
        neighbor: Option<u64>,
        eps: f64,
        scratch: &mut ClipScratch,
    ) -> ClipResult {
        // Most clips of a converging cell change nothing: decide that with
        // one read-only pass, the same `> eps` test the classification
        // makes (a NaN distance fails it and takes the full path, as before).
        if self.verts.iter().all(|&v| plane.signed_distance(v) <= eps) {
            return ClipResult::Unchanged;
        }
        let ClipScratch {
            classes,
            cuts,
            closing,
            angles,
            order,
            loops,
            faces,
            map,
            verts: renumbered,
            spare: _,
        } = scratch;
        classes.clear();
        let (mut n_in, mut n_out) = (0, 0);
        for &v in &self.verts {
            let d = plane.signed_distance(v);
            classes.push(if d < -eps {
                n_in += 1;
                Class::In
            } else if d > eps {
                n_out += 1;
                Class::Out
            } else {
                Class::On
            });
        }
        if n_out == 0 {
            return ClipResult::Unchanged;
        }
        if n_in == 0 {
            self.clear();
            return ClipResult::Empty;
        }
        let any_on = n_in + n_out < self.verts.len();

        let ConvexPolyhedron {
            verts,
            faces: old_faces,
            loops: old_loops,
        } = self;
        cuts.clear();
        closing.clear();
        loops.clear();
        faces.clear();
        // Vertices are renumbered by first reference as the kept loops are
        // written, so no loop is read twice.
        map.clear();
        map.resize(verts.len(), u32::MAX);
        renumbered.clear();
        for face in old_faces.iter() {
            let src = &old_loops[face.start as usize..][..face.len as usize];
            let start = loops.len();
            let cut = src.iter().any(|&v| classes[v as usize] == Class::Out);
            if !cut {
                loops.extend_from_slice(src);
            } else {
                // Keep the vertices that are not out, and put one vertex
                // on every edge that crosses the plane. Adjacent faces share
                // it, so the result stays watertight; it is interpolated
                // in the direction the first face to reach the edge walks it.
                let mut ci = classes[src[0] as usize];
                for (i, &vi) in src.iter().enumerate() {
                    let vj = *src.get(i + 1).unwrap_or(&src[0]);
                    let cj = classes[vj as usize];
                    if ci != Class::Out {
                        push_distinct(loops, start, vi);
                    }
                    if matches!((ci, cj), (Class::In, Class::Out) | (Class::Out, Class::In)) {
                        let (lo, hi) = (vi.min(vj), vi.max(vj));
                        let idx = match cuts.iter().find(|c| c.0 == lo && c.1 == hi) {
                            Some(c) => c.2,
                            None => {
                                let (a, b) = (verts[vi as usize], verts[vj as usize]);
                                let t =
                                    plane.intersect_segment(a, b).unwrap_or(0.5).clamp(0.0, 1.0);
                                verts.push(a.lerp(b, t));
                                classes.push(Class::On);
                                map.push(u32::MAX);
                                let idx = (verts.len() - 1) as u32;
                                cuts.push((lo, hi, idx));
                                idx
                            }
                        };
                        push_distinct(loops, start, idx);
                    }
                    ci = cj;
                }
                while loops.len() - start > 1 && loops[start] == loops[loops.len() - 1] {
                    loops.pop();
                }
                if loops.len() - start < 3 {
                    loops.truncate(start);
                    continue;
                }
            }
            // The closing face is every vertex now on the plane, in the
            // order the surviving faces first reach it.
            let gather = cut || any_on;
            for v in &mut loops[start..] {
                let old = *v as usize;
                if gather && classes[old] == Class::On {
                    classes[old] = Class::Gathered;
                    closing.push(*v);
                }
                if map[old] == u32::MAX {
                    map[old] = renumbered.len() as u32;
                    renumbered.push(verts[old]);
                }
                *v = map[old];
            }
            faces.push(Face {
                start: start as u32,
                len: (loops.len() - start) as u32,
                ..*face
            });
        }

        if closing.len() >= 3 {
            let centroid = {
                let mut c = Vec3::ZERO;
                for &v in closing.iter() {
                    c += verts[v as usize];
                }
                c / closing.len() as f64
            };
            let (u, w) = plane.basis();
            // Counterclockwise around +n: (u, w, n) is right-handed. One
            // angle per vertex; the stable sort of their positions sees the
            // same comparisons, so makes the same permutation, as sorting
            // the vertices by recomputing both angles in every comparison.
            angles.clear();
            angles.extend(closing.iter().map(|&v| {
                let p = verts[v as usize] - centroid;
                p.dot(w).atan2(p.dot(u))
            }));
            order.clear();
            order.extend(0..closing.len() as u32);
            order.sort_by(|&a, &b| {
                angles[a as usize]
                    .partial_cmp(&angles[b as usize])
                    .unwrap_or(Ordering::Equal)
            });
            faces.push(Face {
                plane: *plane,
                neighbor,
                start: loops.len() as u32,
                len: closing.len() as u32,
            });
            // Every closing vertex lies on a kept face, so is numbered.
            loops.extend(order.iter().map(|&k| map[closing[k as usize] as usize]));
        }

        std::mem::swap(verts, renumbered);
        std::mem::swap(old_loops, loops);
        std::mem::swap(old_faces, faces);
        if self.is_empty() {
            self.clear();
            ClipResult::Empty
        } else {
            ClipResult::Clipped
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
    /// cell kernel needs both after every mutating clip). Degenerate
    /// (point-at-`p`) when the polyhedron has no vertices.
    pub fn vertex_aabb_and_max_dist2(&self, p: Vec3) -> (Aabb, f64) {
        let (mut lo, mut hi) = (p, p);
        let mut max_d2 = 0.0f64;
        for &v in &self.verts {
            lo.x = lo.x.min(v.x);
            lo.y = lo.y.min(v.y);
            lo.z = lo.z.min(v.z);
            hi.x = hi.x.max(v.x);
            hi.y = hi.y.max(v.y);
            hi.z = hi.z.max(v.z);
            max_d2 = max_d2.max(v.dist2(p));
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

/// Append `v` to the loop that starts at `start` unless it repeats the
/// loop's last vertex: consecutive duplicates never enter a loop.
#[inline]
fn push_distinct(loops: &mut Vec<u32>, start: usize, v: u32) {
    if loops.len() == start || loops[loops.len() - 1] != v {
        loops.push(v);
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
        // x = 0 is untouched, and two vertices are interpolated — each in
        // the direction the first face to reach its edge walks it (the face
        // y = 1, loop 2 → 6 → 7 → 3).
        let mut c = unit_cube();
        let v = c.verts.clone();
        let n = Vec3::new(3.0, -1.0, 0.0).normalized().unwrap();
        let plane = Plane::from_point_normal(Vec3::ZERO, n);
        assert_eq!(c.clip(&plane, Some(9), EPS), ClipResult::Clipped);
        let cut =
            |a: usize, b: usize| v[a].lerp(v[b], plane.intersect_segment(v[a], v[b]).unwrap());
        // Vertices numbered by first reference: the untouched face x = 0
        // (loop 0 → 4 → 6 → 2), then the face y = 1's two new vertices.
        let want = [v[0], v[4], v[6], v[2], cut(6, 7), cut(3, 2)];
        assert_eq!(
            c.verts.iter().map(|&p| bits(p)).collect::<Vec<_>>(),
            want.iter().map(|&p| bits(p)).collect::<Vec<_>>()
        );
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
