//! Differential test of the clip against the face-loop clip it replaced.
//!
//! `ConvexPolyhedron` names each vertex by its three planes and builds the
//! face loops once, after the last clip. The reference below is the clip
//! that kept every face loop up to date instead: each cut rewrote every
//! loop, renumbered every vertex, interpolated new vertices along the cut
//! edges and ordered the closing face by angle. Both see the same planes,
//! so every cell must come out with the same faces — same count, same
//! neighbors, same number of distinct vertices — and the same volume and
//! area to rounding. Vertex positions differ in the last bits (three-plane
//! intersection instead of edge interpolation), so no bits are compared.

use std::cmp::Ordering;

use geometry::measures::{polygon_area_by, tetra_volume_signed};
use geometry::{Aabb, ConvexPolyhedron, Plane, Vec3, EPS};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    In,
    On,
    Out,
    /// An `On` vertex already gathered into the closing face.
    Gathered,
}

#[derive(Clone, Copy)]
struct RefFace {
    neighbor: Option<u64>,
    start: usize,
    len: usize,
}

/// The face-loop polyhedron: vertices, faces, and every face's loop back to
/// back in one index buffer.
#[derive(Clone, Default)]
struct Reference {
    verts: Vec<Vec3>,
    faces: Vec<RefFace>,
    loops: Vec<u32>,
}

impl Reference {
    fn from_aabb(b: &Aabb) -> Self {
        let (lo, hi) = (b.min, b.max);
        let mut r = Reference::default();
        for i in 0..8 {
            let pick = |bit: usize, l: f64, h: f64| if i >> bit & 1 == 1 { h } else { l };
            r.verts.push(Vec3::new(
                pick(0, lo.x, hi.x),
                pick(1, lo.y, hi.y),
                pick(2, lo.z, hi.z),
            ));
        }
        // Loops are counterclockwise when viewed from outside the box.
        for loop_ in [
            [0, 4, 6, 2],
            [1, 3, 7, 5],
            [0, 1, 5, 4],
            [2, 6, 7, 3],
            [0, 2, 3, 1],
            [4, 5, 7, 6],
        ] {
            r.faces.push(RefFace {
                neighbor: None,
                start: r.loops.len(),
                len: 4,
            });
            r.loops.extend_from_slice(&loop_);
        }
        r
    }

    fn is_empty(&self) -> bool {
        self.verts.len() < 4 || self.faces.len() < 4
    }

    fn face_verts(&self, f: &RefFace) -> &[u32] {
        &self.loops[f.start..f.start + f.len]
    }

    fn clip(&mut self, plane: &Plane, neighbor: Option<u64>, eps: f64) {
        let mut classes = Vec::with_capacity(self.verts.len());
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
            return;
        }
        if n_in == 0 {
            *self = Reference::default();
            return;
        }
        let any_on = n_in + n_out < self.verts.len();

        let mut verts = self.verts.clone();
        let mut cuts: Vec<(u32, u32, u32)> = Vec::new();
        let mut closing: Vec<u32> = Vec::new();
        let mut loops: Vec<u32> = Vec::new();
        let mut faces: Vec<RefFace> = Vec::new();
        let mut map = vec![u32::MAX; verts.len()];
        let mut renumbered: Vec<Vec3> = Vec::new();
        let push_distinct = |loops: &mut Vec<u32>, start: usize, v: u32| {
            if loops.len() == start || loops[loops.len() - 1] != v {
                loops.push(v);
            }
        };
        for face in &self.faces {
            let src = self.face_verts(face);
            let start = loops.len();
            let cut = src.iter().any(|&v| classes[v as usize] == Class::Out);
            if !cut {
                loops.extend_from_slice(src);
            } else {
                // Keep the vertices that are not out and put one vertex on
                // every edge that crosses the plane, shared by both faces.
                let mut ci = classes[src[0] as usize];
                for (i, &vi) in src.iter().enumerate() {
                    let vj = *src.get(i + 1).unwrap_or(&src[0]);
                    let cj = classes[vj as usize];
                    if ci != Class::Out {
                        push_distinct(&mut loops, start, vi);
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
                        push_distinct(&mut loops, start, idx);
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
            faces.push(RefFace {
                start,
                len: loops.len() - start,
                ..*face
            });
        }

        if closing.len() >= 3 {
            let mut centroid = Vec3::ZERO;
            for &v in &closing {
                centroid += verts[v as usize];
            }
            centroid /= closing.len() as f64;
            // Counterclockwise around +n: (u, w, n) is right-handed.
            let (u, w) = plane.basis();
            let angles: Vec<f64> = closing
                .iter()
                .map(|&v| {
                    let p = verts[v as usize] - centroid;
                    p.dot(w).atan2(p.dot(u))
                })
                .collect();
            let mut order: Vec<usize> = (0..closing.len()).collect();
            order.sort_by(|&a, &b| angles[a].partial_cmp(&angles[b]).unwrap_or(Ordering::Equal));
            faces.push(RefFace {
                neighbor,
                start: loops.len(),
                len: closing.len(),
            });
            loops.extend(order.iter().map(|&k| map[closing[k] as usize]));
        }

        self.verts = renumbered;
        self.faces = faces;
        self.loops = loops;
        if self.is_empty() {
            *self = Reference::default();
        }
    }

    fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut r = Vec3::ZERO;
        for &v in &self.verts {
            r += v;
        }
        r /= self.verts.len() as f64;
        let mut vol = 0.0;
        for f in &self.faces {
            let l = self.face_verts(f);
            let f0 = self.verts[l[0] as usize];
            for i in 1..l.len() - 1 {
                let (fi, fj) = (self.verts[l[i] as usize], self.verts[l[i + 1] as usize]);
                vol += tetra_volume_signed(r, f0, fi, fj);
            }
        }
        vol
    }

    fn surface_area(&self) -> f64 {
        self.faces
            .iter()
            .map(|f| {
                let l = self.face_verts(f);
                polygon_area_by(l.len(), |i| self.verts[l[i] as usize])
            })
            .sum()
    }
}

/// Number of distinct vertex positions.
fn distinct(verts: &[Vec3]) -> usize {
    let mut bits: Vec<[u64; 3]> = verts
        .iter()
        .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect();
    bits.sort_unstable();
    bits.dedup();
    bits.len()
}

fn neighbors(mut n: Vec<Option<u64>>) -> Vec<Option<u64>> {
    n.sort_unstable();
    n
}

/// The same cell from both clips agrees in everything but the last bits.
fn assert_same_cell(got: &ConvexPolyhedron, want: &Reference, what: &str) {
    assert_eq!(got.is_empty(), want.is_empty(), "{what}: emptiness");
    if want.is_empty() {
        return;
    }
    assert!(got.check_closed(), "{what}: not closed");
    assert_eq!(got.faces.len(), want.faces.len(), "{what}: face count");
    assert_eq!(
        neighbors(got.faces.iter().map(|f| f.neighbor).collect()),
        neighbors(want.faces.iter().map(|f| f.neighbor).collect()),
        "{what}: neighbors"
    );
    assert_eq!(
        distinct(&got.verts),
        distinct(&want.verts),
        "{what}: distinct vertices"
    );
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-11 * b.abs();
    let (gv, wv) = (got.volume(), want.volume());
    assert!(close(gv, wv), "{what}: volume {gv} vs {wv}");
    let (ga, wa) = (got.surface_area(), want.surface_area());
    assert!(close(ga, wa), "{what}: area {ga} vs {wa}");
}

/// Clip the cell of `points[site]` in both representations: from the cube
/// of half-extent `h` around the site, by the other points' bisectors in
/// (distance, index) order, up to the security radius. Returns the cells
/// compared.
fn compare_cells(points: &[Vec3], h: f64, what: &str) -> usize {
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(points.len());
    for (s, &site) in points.iter().enumerate() {
        order.clear();
        order.extend(
            points
                .iter()
                .enumerate()
                .filter(|&(i, q)| i != s && q.dist2(site) > 1e-24)
                .map(|(i, q)| (q.dist2(site), i)),
        );
        order.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let start = Aabb::new(site - Vec3::splat(h), site + Vec3::splat(h));
        let mut got = ConvexPolyhedron::from_aabb(&start);
        let mut want = Reference::from_aabb(&start);
        for &(d2, i) in &order {
            let (_, max_d2) = got.vertex_aabb_and_max_dist2(site);
            if d2 > 4.0 * max_d2 {
                break;
            }
            let plane = Plane::bisector(site, points[i]).unwrap();
            got.clip(&plane, Some(i as u64), EPS);
            want.clip(&plane, Some(i as u64), EPS);
        }
        assert_same_cell(&got, &want, &format!("{what} site {s}"));
    }
    points.len()
}

/// `n³` lattice points at `origin + (k + ½) spacing`, each moved by up to
/// `jitter` per axis; `jitter = 0` is an exact lattice.
fn lattice(n: usize, origin: f64, spacing: f64, jitter: f64, seed: u64) -> Vec<Vec3> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut offset = || {
        if jitter > 0.0 {
            rng.gen_range(-jitter..jitter)
        } else {
            0.0
        }
    };
    let at = |k: usize| origin + (k as f64 + 0.5) * spacing;
    (0..n * n * n)
        .map(|i| {
            Vec3::new(at(i % n), at(i / n % n), at(i / (n * n)))
                + Vec3::new(offset(), offset(), offset())
        })
        .collect()
}

#[test]
fn lattice_cells_match_the_face_loop_clip() {
    // Two jittered lattices, the exact unit lattice (its bisectors meet in
    // exactly representable vertices) and an exact lattice whose spacing
    // and origin are not representable, so a bisector through a cell
    // vertex misses it by rounding and the vertex classifies `On`.
    let n = 6;
    for (origin, spacing, jitter) in [
        (0.0, 1.0, 0.2),
        (0.0, 1.0, 0.45),
        (0.0, 1.0, 0.0),
        (0.3, 0.7, 0.0),
    ] {
        let points = lattice(n, origin, spacing, jitter, 1);
        let what = format!("spacing {spacing} jitter {jitter}");
        assert_eq!(compare_cells(&points, n as f64 * spacing, &what), n * n * n);
    }
}

#[test]
fn clustered_cells_match_the_face_loop_clip() {
    let side = 8.0;
    let points: Vec<Vec3> = bench_harness::corpus::clustered(side, 6, 60, 150, 5)
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    compare_cells(&points, side, "clustered");
}

#[test]
fn cube_cuts_through_edges_and_corners_match_the_face_loop_clip() {
    // Planes through existing vertices: the cut must add no vertex beside
    // one already on the plane, or faces of zero area survive. Each plane
    // is tried both ways round, on the unit cube and on a cube whose
    // corners the planes miss by rounding, and each result is cut once
    // more by a plane through none of its vertices.
    let unit = |x: f64, y: f64, z: f64| Vec3::new(x, y, z).normalized().unwrap();
    for cube in [
        Aabb::cube(1.0),
        Aabb::new(Vec3::splat(0.1), Vec3::splat(0.8)),
    ] {
        let (lo, hi) = (cube.min, cube.max);
        let cuts = [
            ("one edge", lo, unit(3.0, -1.0, 0.0)),
            ("two edges", lo, unit(1.0, -1.0, 0.0)),
            (
                "three corners",
                Vec3::new(hi.x, lo.y, lo.z),
                unit(1.0, 1.0, 1.0),
            ),
            ("one corner", lo, unit(-1.0, 2.0, 1.5)),
        ];
        for (what, point, n) in cuts {
            for plane in [
                Plane::from_point_normal(point, n),
                Plane::from_point_normal(point, -n),
            ] {
                let what = format!("{what} of {lo}..{hi}, normal {}", plane.n);
                let mut got = ConvexPolyhedron::from_aabb(&cube);
                let mut want = Reference::from_aabb(&cube);
                got.clip(&plane, Some(1), EPS);
                want.clip(&plane, Some(1), EPS);
                assert_same_cell(&got, &want, &what);
                let second = Plane::from_point_normal(cube.center(), unit(1.0, 0.3, -0.2));
                got.clip(&second, Some(2), EPS);
                want.clip(&second, Some(2), EPS);
                assert_same_cell(&got, &want, &format!("{what}, then a second cut"));
            }
        }
    }
}
