//! Scalar measures of simple geometric objects.

use crate::vec3::Vec3;

/// Signed volume of the tetrahedron `(a, b, c, d)`:
/// positive when `(b-a, c-a, d-a)` is a right-handed frame.
#[inline]
pub fn tetra_volume_signed(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Unsigned volume of the tetrahedron `(a, b, c, d)`.
#[inline]
pub fn tetra_volume(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    tetra_volume_signed(a, b, c, d).abs()
}

/// Area of the triangle `(a, b, c)`.
#[inline]
pub fn triangle_area(a: Vec3, b: Vec3, c: Vec3) -> f64 {
    (b - a).cross(c - a).norm() * 0.5
}

/// Area of a planar polygon given by an ordered vertex loop.
pub fn polygon_area(verts: &[Vec3]) -> f64 {
    polygon_area_by(verts.len(), |i| verts[i])
}

/// [`polygon_area`] of the `n`-corner loop whose `i`-th corner is
/// `corner(i)` — for loops stored as indices into a shared vertex array.
pub fn polygon_area_by(n: usize, corner: impl Fn(usize) -> Vec3) -> f64 {
    if n < 3 {
        return 0.0;
    }
    // Shoelace generalized to 3D: half the norm of the summed cross products.
    let p0 = corner(0);
    let mut s = Vec3::ZERO;
    for i in 1..n - 1 {
        s += (corner(i) - p0).cross(corner(i + 1) - p0);
    }
    s.norm() * 0.5
}

/// Unit normal of a planar polygon (Newell's method); `None` when degenerate.
pub fn polygon_normal(verts: &[Vec3]) -> Option<Vec3> {
    if verts.len() < 3 {
        return None;
    }
    let mut n = Vec3::ZERO;
    for i in 0..verts.len() {
        let a = verts[i];
        let b = verts[(i + 1) % verts.len()];
        n.x += (a.y - b.y) * (a.z + b.z);
        n.y += (a.z - b.z) * (a.x + b.x);
        n.z += (a.x - b.x) * (a.y + b.y);
    }
    n.normalized()
}

/// Circumcenter of the tetrahedron `(a, b, c, d)`, or `None` when the four
/// points are (nearly) coplanar. Used to dualize Delaunay cells to Voronoi
/// vertices.
pub fn tetra_circumcenter(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Option<Vec3> {
    let ba = b - a;
    let ca = c - a;
    let da = d - a;
    let det = 2.0 * ba.dot(ca.cross(da));
    if det.abs() < 1e-14 * ba.norm() * ca.norm() * da.norm() {
        return None;
    }
    let num = ba.norm2() * ca.cross(da) + ca.norm2() * da.cross(ba) + da.norm2() * ba.cross(ca);
    Some(a + num / det)
}

/// Interior dihedral angle (in radians) along an edge shared by two faces
/// with *outward* unit normals `n1`, `n2`. A flat surface gives π; a convex
/// edge (e.g. a cube edge, normals at 90°) gives π/2.
#[inline]
pub fn dihedral_angle(n1: Vec3, n2: Vec3) -> f64 {
    let c = n1.dot(n2).clamp(-1.0, 1.0);
    std::f64::consts::PI - c.acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn tetra_volumes() {
        let a = Vec3::ZERO;
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d = Vec3::new(0.0, 0.0, 1.0);
        assert!((tetra_volume_signed(a, b, c, d) - 1.0 / 6.0).abs() < 1e-15);
        assert!((tetra_volume_signed(a, c, b, d) + 1.0 / 6.0).abs() < 1e-15);
        assert_eq!(tetra_volume(a, c, b, d), tetra_volume(a, b, c, d));
        // degenerate
        assert_eq!(tetra_volume(a, b, c, Vec3::new(0.5, 0.5, 0.0)), 0.0);
    }

    #[test]
    fn areas() {
        let a = Vec3::ZERO;
        let b = Vec3::new(2.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 2.0, 0.0);
        assert_eq!(triangle_area(a, b, c), 2.0);
        // unit square in an arbitrary plane
        let quad = [
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        ];
        assert!((polygon_area(&quad) - 1.0).abs() < 1e-15);
        assert_eq!(polygon_area(&quad[..2]), 0.0);
    }

    #[test]
    fn polygon_normal_follows_winding() {
        let quad = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        ];
        let n = polygon_normal(&quad).unwrap();
        assert!((n - Vec3::new(0.0, 0.0, 1.0)).norm() < 1e-12);
        let rev: Vec<_> = quad.iter().rev().copied().collect();
        let n2 = polygon_normal(&rev).unwrap();
        assert!((n2 - Vec3::new(0.0, 0.0, -1.0)).norm() < 1e-12);
    }

    #[test]
    fn circumcenter_equidistant() {
        let a = Vec3::new(0.1, 0.2, 0.3);
        let b = Vec3::new(1.3, -0.2, 0.4);
        let c = Vec3::new(0.4, 1.1, -0.3);
        let d = Vec3::new(-0.2, 0.3, 1.2);
        let cc = tetra_circumcenter(a, b, c, d).unwrap();
        let r = cc.dist(a);
        for p in [b, c, d] {
            assert!((cc.dist(p) - r).abs() < 1e-9);
        }
        // coplanar points have no circumcenter
        assert!(tetra_circumcenter(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0)
        )
        .is_none());
    }

    #[test]
    fn dihedral_angles() {
        // flat: normals equal
        let n = Vec3::new(0.0, 0.0, 1.0);
        assert!((dihedral_angle(n, n) - PI).abs() < 1e-12);
        // cube edge: perpendicular outward normals -> interior angle π/2
        assert!(
            (dihedral_angle(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)) - PI / 2.0).abs()
                < 1e-12
        );
        // knife edge: opposite normals -> angle 0
        assert!(dihedral_angle(n, -n).abs() < 1e-12);
    }
}
