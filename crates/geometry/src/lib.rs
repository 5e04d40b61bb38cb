//! Computational-geometry substrate for the `tess` parallel Voronoi library.
//!
//! This crate provides the serial geometry engine that the paper obtains from
//! Qhull, reimplemented from scratch in Rust:
//!
//! * [`Vec3`] / [`Aabb`] — basic linear algebra and axis-aligned boxes.
//! * [`expansion`] — exact floating-point expansion arithmetic
//!   (Shewchuk-style), the foundation for robust predicates.
//! * [`predicates`] — statically filtered, exactly-falling-back `orient3d`
//!   and `insphere` predicates.
//! * [`Plane`] and [`ConvexPolyhedron`] — half-space clipping of convex
//!   polyhedra, the core operation of Voronoi cell construction: vertices
//!   named by their three planes while a cell is clipped, faces built once
//!   after the last clip.
//! * [`quickhull`] — a 3D convex hull (the paper's Qhull role: ordering the
//!   vertices of a Voronoi cell into faces and computing volume and area).
//!
//! All coordinates are `f64`. The clipping and hull code uses tolerance-based
//! classification suitable for the well-separated point sets produced by
//! N-body simulations; the exact predicates are used by the `delaunay` crate
//! where degeneracy handling is mandatory.

pub mod aabb;
pub mod expansion;
pub mod measures;
pub mod plane;
pub mod polyhedron;
pub mod predicates;
pub mod quickhull;
pub mod vec3;

pub use aabb::Aabb;
pub use plane::Plane;
pub use polyhedron::{ClipScratch, ConvexPolyhedron};
pub use quickhull::{convex_hull, Hull};
pub use vec3::Vec3;

/// Relative tolerance used by the tolerance-based (non-exact) geometry paths.
///
/// Chosen so that Voronoi cells of particles spaced O(1) apart (the paper's
/// 1 Mpc/h initial spacing) classify vertices stably: coordinates live in
/// roughly `[0, 1e3]`, so absolute errors of a few ulps are far below this.
pub const EPS: f64 = 1e-9;
