//! Oriented planes / half-spaces.

use crate::vec3::Vec3;

/// An oriented plane `{ x : n·x = d }` with unit normal `n`.
///
/// The *inside* half-space is `n·x <= d`; clipping a polyhedron by a plane
/// keeps the inside. For a Voronoi bisector between site `s` and neighbor
/// `q`, the normal points from `s` toward `q`, so the inside is the set of
/// points closer to `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// Unit normal.
    pub n: Vec3,
    /// Offset along the normal (`d = n · p` for any point `p` on the plane).
    pub d: f64,
}

impl Plane {
    /// Plane with the given (unit) normal passing through `point`.
    pub fn from_point_normal(point: Vec3, n: Vec3) -> Self {
        debug_assert!((n.norm() - 1.0).abs() < 1e-9, "normal must be unit length");
        Plane { n, d: n.dot(point) }
    }

    /// Perpendicular bisector between `site` and `neighbor`, oriented so the
    /// inside half-space contains `site`. `None` when the points coincide.
    pub fn bisector(site: Vec3, neighbor: Vec3) -> Option<Self> {
        let n = (neighbor - site).normalized()?;
        Some(Plane::from_point_normal(site.midpoint(neighbor), n))
    }

    /// Signed distance from `p` to the plane (positive outside).
    #[inline]
    pub fn signed_distance(&self, p: Vec3) -> f64 {
        self.n.dot(p) - self.d
    }

    /// `true` when `p` lies in the closed inside half-space.
    #[inline]
    pub fn inside(&self, p: Vec3) -> bool {
        self.signed_distance(p) <= 0.0
    }

    /// Plane with the opposite orientation.
    pub fn flipped(&self) -> Plane {
        Plane {
            n: -self.n,
            d: -self.d,
        }
    }

    /// Intersection parameter `t` such that `a + t (b - a)` lies on the
    /// plane. `None` when the segment is parallel to the plane.
    pub fn intersect_segment(&self, a: Vec3, b: Vec3) -> Option<f64> {
        let da = self.signed_distance(a);
        let db = self.signed_distance(b);
        let denom = da - db;
        if denom == 0.0 {
            return None;
        }
        Some(da / denom)
    }

    /// The point where `self`, `b` and `c` meet (Cramer's rule). Not finite
    /// when the three normals are linearly dependent.
    pub fn intersect_planes(&self, b: &Plane, c: &Plane) -> Vec3 {
        let (bc, ca, ab) = (b.n.cross(c.n), c.n.cross(self.n), self.n.cross(b.n));
        (bc * self.d + ca * b.d + ab * c.d) * (1.0 / self.n.dot(bc))
    }

    /// An orthonormal basis `(u, v)` spanning the plane, so points can be
    /// projected to 2D coordinates `(u·x, v·x)` for angular sorting.
    pub fn basis(&self) -> (Vec3, Vec3) {
        // Pick the axis least aligned with n to avoid degeneracy.
        let a = if self.n.x.abs() <= self.n.y.abs() && self.n.x.abs() <= self.n.z.abs() {
            Vec3::new(1.0, 0.0, 0.0)
        } else if self.n.y.abs() <= self.n.z.abs() {
            Vec3::new(0.0, 1.0, 0.0)
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        };
        let u = self
            .n
            .cross(a)
            .normalized()
            .expect("normal is unit, a not parallel");
        let v = self.n.cross(u);
        (u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisector_properties() {
        let s = Vec3::new(0.0, 0.0, 0.0);
        let q = Vec3::new(2.0, 0.0, 0.0);
        let p = Plane::bisector(s, q).unwrap();
        assert_eq!(p.n, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(p.signed_distance(s.midpoint(q)), 0.0);
        assert!(p.inside(s));
        assert!(!p.inside(q));
        // Equidistant points lie on the plane
        assert_eq!(p.signed_distance(Vec3::new(1.0, 5.0, -3.0)), 0.0);
        assert!(Plane::bisector(s, s).is_none());
    }

    #[test]
    fn signed_distance_and_flip() {
        let p = Plane::from_point_normal(Vec3::new(0.0, 0.0, 1.0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(p.signed_distance(Vec3::new(0.0, 0.0, 3.0)), 2.0);
        assert_eq!(p.signed_distance(Vec3::ZERO), -1.0);
        let f = p.flipped();
        assert_eq!(f.signed_distance(Vec3::new(0.0, 0.0, 3.0)), -2.0);
    }

    #[test]
    fn segment_intersection() {
        let p = Plane::from_point_normal(Vec3::new(0.0, 0.0, 0.5), Vec3::new(0.0, 0.0, 1.0));
        let t = p
            .intersect_segment(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0))
            .unwrap();
        assert_eq!(t, 0.5);
        // parallel segment
        assert!(p
            .intersect_segment(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0))
            .is_none());
    }

    #[test]
    fn three_planes_meet_in_one_point() {
        let x = Plane::from_point_normal(Vec3::new(2.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
        let y = Plane::from_point_normal(Vec3::new(0.0, -1.0, 0.0), Vec3::new(0.0, -1.0, 0.0));
        let n = Vec3::new(1.0, 1.0, 1.0).normalized().unwrap();
        let s = Plane::from_point_normal(Vec3::new(0.0, 0.0, 3.0), n);
        let p = x.intersect_planes(&y, &s);
        assert!((p - Vec3::new(2.0, -1.0, 2.0)).norm() < 1e-12, "{p}");
        for plane in [x, y, s] {
            assert!(plane.signed_distance(p).abs() < 1e-12);
        }
        // parallel planes share no single point
        assert!(!x.intersect_planes(&x.flipped(), &s).is_finite());
    }

    #[test]
    fn basis_is_orthonormal() {
        for n in [
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.6, 0.8, 0.0),
            Vec3::new(0.577350269189626, 0.577350269189626, 0.577350269189626),
        ] {
            let p = Plane::from_point_normal(Vec3::ZERO, n);
            let (u, v) = p.basis();
            assert!((u.norm() - 1.0).abs() < 1e-12);
            assert!((v.norm() - 1.0).abs() < 1e-12);
            assert!(u.dot(v).abs() < 1e-12);
            assert!(u.dot(n).abs() < 1e-12);
            assert!(v.dot(n).abs() < 1e-12);
        }
    }
}
