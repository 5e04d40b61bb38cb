//! Local Voronoi cell computation with the security-radius criterion.
//!
//! One ordered clip pass ([`clip_ordered`]): start from a box, take the
//! grid's candidates in the canonical order — exact distance, then global
//! id, then position ([`CandidateGrid::stream`]) — clip by each bisector,
//! and stop the moment the next candidate lies beyond the security radius
//! (twice the farthest vertex). Every clip that changes the cell leaves
//! vertices on its bisector, so the final security radius is at least the
//! distance of the last clipper that mattered and, the order being
//! ascending, of every candidate before it: whatever the pass never looked
//! at is a provable no-op. The cell's floating-point bits are therefore a
//! function of the start box and the particle *set* alone — not of the
//! ghost round, the grid geometry, or the local order of the points.
//!
//! [`compute_cell`] runs that pass at most twice. First from the
//! **canonical start box** — a site-centered cube whose half-extent the
//! driver derives from the global domain, so regular and k-d
//! decompositions clip the same floats in the same order — with the
//! candidates capped at the room the site has inside the ghosted region.
//! A cell whose security ball fits inside that room (and inside the box)
//! is the global Voronoi cell and is the output. Everything else — cells
//! the region walls bound, cells too large for the canonical box — is
//! clipped once more from the region itself, uncapped: those are the
//! incomplete cells (dropped, or kept with the region walls legitimately
//! part of them) and the rare huge complete ones.
//!
//! Both passes end in the one test [`certified`]. A cell the first pass
//! certified carries its bits across service epochs: while no particle in
//! its security ball moves and the ball still certifies against the new
//! region, recomputing it would clip the same candidates in the same order
//! from the same box.
//!
//! All buffers live in a caller-owned [`CellScratch`] so computing millions
//! of cells allocates nothing in steady state.

use geometry::polyhedron::{ClipResult, ClipScratch};
use geometry::{Aabb, ConvexPolyhedron, Plane, Vec3};

use crate::grid::{CandidateGrid, StreamScratch};

/// Outcome of computing one cell.
pub struct ComputedCell {
    pub poly: ConvexPolyhedron,
    /// `true` when the security ball fit inside the known (ghosted) region,
    /// so the cell is provably identical to the global Voronoi cell.
    pub complete: bool,
    /// Bisector planes actually clipped against (performance diagnostic).
    pub candidates_tested: usize,
    /// Candidates rejected without a clip: by the `f32` distance prefilter
    /// before the exact distance was computed, or by the support-function
    /// test against the cell's bounding box.
    pub prefilter_skipped: u64,
    /// Candidates the stream sorted into emission order (the ones it
    /// dropped beyond the shrinking bound are never sorted).
    pub candidates_sorted: u64,
    /// Security-ball diameter squared of `poly` (`4 × max site→vertex²`,
    /// 0 for an emptied polyhedron).
    pub(crate) sec2: f64,
    /// Certified by the first pass, from the canonical start box: the bits
    /// are then a function of the particles in the security ball alone.
    /// Cells certified only by the second pass started from the region.
    pub(crate) canonical: bool,
}

/// Shared, immutable inputs for every cell of one block pass.
pub struct CellContext<'a> {
    /// Own + ghost particle positions (ghosts may be periodic images).
    pub points: &'a [Vec3],
    /// Global particle id per entry of `points`.
    pub ids: &'a [u64],
    pub grid: &'a CandidateGrid,
    /// The ghosted block box the points cover; decides completeness, and
    /// is the start box of every cell that cannot certify.
    pub region: &'a Aabb,
    /// Canonical start box when `canon_extent` is `None`: must depend only
    /// on the block, never on the ghost radius, so a complete cell's bits
    /// are reproducible across ghost rounds.
    pub clip_box: &'a Aabb,
    /// Preferred canonical start box: a cube of this half-extent centered
    /// on the site. The driver derives it from the global domain, making
    /// it independent of the block *decomposition* as well as of the
    /// ghost round — the invariant behind cross-scheme bit-identical
    /// meshes. `None` uses the block-derived `clip_box`.
    pub canon_extent: Option<f64>,
    /// Clipping tolerance.
    pub eps: f64,
}

/// Reusable per-thread buffers for [`compute_cell`], including the storage
/// of the polyhedra it returns: hand each one back through
/// [`recycle`](Self::recycle) once it has been read.
#[derive(Default)]
pub struct CellScratch {
    clip: ClipScratch,
    stream: StreamScratch,
}

impl CellScratch {
    /// Return a computed cell's polyhedron for the next cell to build in.
    pub fn recycle(&mut self, poly: ConvexPolyhedron) {
        self.clip.recycle(poly);
    }
}

/// Compute the Voronoi cell of `site` (`self_idx` in `ctx.points`, skipped).
pub fn compute_cell(
    ctx: &CellContext,
    site: Vec3,
    self_idx: u32,
    scratch: &mut CellScratch,
) -> ComputedCell {
    if !site.is_finite() {
        // No cell: and as a candidate such a point never enters another
        // cell's stream, whose distance tests it fails.
        return ComputedCell {
            poly: ConvexPolyhedron::default(),
            complete: false,
            candidates_tested: 0,
            prefilter_skipped: 0,
            candidates_sorted: 0,
            sec2: 0.0,
            canonical: false,
        };
    }
    let site_cube;
    let start_box = match ctx.canon_extent {
        Some(h) => {
            site_cube = Aabb::new(site - Vec3::splat(h), site + Vec3::splat(h));
            &site_cube
        }
        None => ctx.clip_box,
    };
    let fit = canonical_fit(ctx.canon_extent, ctx.clip_box, site);
    // No particle beyond the room the site has inside the region can cut a
    // cell that ends up certified, so the first pass never looks past it.
    let room = ctx.region.interior_distance(site) + ctx.eps;
    let first = clip_ordered(ctx, site, self_idx, start_box, room * room, scratch);
    if !first.poly.is_empty() && certified(ctx.region, ctx.eps, site, first.sec2, fit) {
        return ComputedCell {
            complete: true,
            canonical: true,
            ..first
        };
    }

    // Not certifiable from the canonical box: the region always contains
    // the cell, and its walls are legitimately part of an incomplete one.
    let ComputedCell {
        poly,
        candidates_tested,
        prefilter_skipped,
        candidates_sorted,
        ..
    } = first;
    scratch.recycle(poly);
    let second = clip_ordered(ctx, site, self_idx, ctx.region, f64::INFINITY, scratch);
    ComputedCell {
        complete: !second.poly.is_empty()
            && certified(ctx.region, ctx.eps, site, second.sec2, f64::INFINITY),
        candidates_tested: candidates_tested + second.candidates_tested,
        prefilter_skipped: prefilter_skipped + second.prefilter_skipped,
        candidates_sorted: candidates_sorted + second.candidates_sorted,
        ..second
    }
}

/// How far the first pass's cell at `site` may reach inside its canonical
/// start box: the cube's half-extent, or the site's room inside the
/// block-derived `clip_box`.
pub(crate) fn canonical_fit(canon_extent: Option<f64>, clip_box: &Aabb, site: Vec3) -> f64 {
    canon_extent.unwrap_or_else(|| clip_box.interior_distance(site))
}

/// The certification test, one function for both callers: [`compute_cell`]
/// after each pass, and the service's epoch carry for a cell the canonical
/// pass certified against an earlier region. A non-empty cell with
/// security-ball diameter² `sec2` is the global Voronoi cell iff the ball
/// fits in the room the site has inside `region` (every particle there is
/// known) and reaches no farther than `fit` inside the box the pass started
/// from (its walls are then not part of the cell).
pub(crate) fn certified(region: &Aabb, eps: f64, site: Vec3, sec2: f64, fit: f64) -> bool {
    let ball = sec2.sqrt();
    ball <= region.interior_distance(site) + eps && ball * 0.5 <= fit
}

/// Clip `start_box` by the bisectors of the candidates around `site` in
/// canonical order, stopping at the first one beyond the security radius
/// or beyond `cap2` (squared), then build the cell's faces once.
/// `complete` is left `false` for the caller. An emptied polyhedron —
/// numerically impossible for a true Voronoi cell, guarded for degenerate
/// input — ends the pass.
fn clip_ordered(
    ctx: &CellContext,
    site: Vec3,
    self_idx: u32,
    start_box: &Aabb,
    cap2: f64,
    scratch: &mut CellScratch,
) -> ComputedCell {
    let CellScratch { stream, clip } = scratch;
    let mut poly = clip.from_aabb(start_box);
    let (mut bb, maxd2) = poly.vertex_aabb_and_max_dist2(site);
    // 2 × max site-to-vertex distance, squared — any particle farther than
    // this cannot clip the cell.
    let mut sec2 = 4.0 * maxd2;
    let mut tested = 0usize;
    let mut cheap_rejects = 0u64;
    let mut candidates = ctx.grid.stream(ctx.points, ctx.ids, site, self_idx, stream);
    while let Some((d2, i)) = candidates.next(sec2.min(cap2)) {
        if d2 < 1e-24 {
            continue; // coincident particle: no bisector exists
        }
        let q = ctx.points[i as usize];
        let plane = Plane::bisector(site, q).expect("distinct points");
        // Support-function reject: if the bisector cannot reach the cell's
        // vertex bounding box, the clip is a provable no-op — skip the
        // O(verts) classification entirely. Elongated boundary cells have
        // security balls far larger than their box, so most ball
        // candidates die here.
        if bb.support(plane.n) - plane.d <= ctx.eps {
            cheap_rejects += 1;
            continue;
        }
        tested += 1;
        match poly.clip_with(&plane, Some(i as u64), ctx.eps, clip) {
            ClipResult::Clipped => {
                let (nbb, maxd2) = poly.vertex_aabb_and_max_dist2(site);
                bb = nbb;
                sec2 = 4.0 * maxd2;
            }
            ClipResult::Unchanged => {}
            ClipResult::Empty => {
                sec2 = 0.0;
                break;
            }
        }
    }
    poly.build_faces(clip);
    ComputedCell {
        poly,
        complete: false,
        candidates_tested: tested,
        prefilter_skipped: candidates.prefilter_skipped() + cheap_rejects,
        candidates_sorted: candidates.sorted(),
        sec2,
        canonical: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize, jitter: f64) -> Vec<Vec3> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        (0..n)
            .flat_map(|k| {
                (0..n)
                    .flat_map(move |j| {
                        (0..n)
                            .map(move |i| Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5))
                    })
                    .collect::<Vec<_>>()
            })
            .map(move |p| {
                p + Vec3::new(
                    rng.gen_range(-jitter..=jitter.max(1e-300)),
                    rng.gen_range(-jitter..=jitter.max(1e-300)),
                    rng.gen_range(-jitter..=jitter.max(1e-300)),
                )
            })
            .collect()
    }

    /// Cell of `pts[idx]` with `region` as both the known region and the
    /// canonical start box.
    fn cell_with_ids(pts: &[Vec3], ids: &[u64], region: &Aabb, idx: usize) -> ComputedCell {
        let grid = CandidateGrid::build(*region, pts, 2.0);
        let ctx = CellContext {
            points: pts,
            ids,
            grid: &grid,
            region,
            clip_box: region,
            canon_extent: None,
            eps: 1e-9,
        };
        compute_cell(&ctx, pts[idx], idx as u32, &mut CellScratch::default())
    }

    fn cell_of(pts: &[Vec3], region: &Aabb, idx: usize) -> ComputedCell {
        let ids: Vec<u64> = (0..pts.len() as u64).collect();
        cell_with_ids(pts, &ids, region, idx)
    }

    /// The oracle: `start_box` clipped by *every* other particle sorted by
    /// (distance, id, position) — no grid, no termination, no reject.
    fn brute_force(
        pts: &[Vec3],
        ids: &[u64],
        start_box: &Aabb,
        idx: usize,
        eps: f64,
    ) -> ConvexPolyhedron {
        let site = pts[idx];
        let mut order: Vec<usize> = (0..pts.len())
            .filter(|&i| i != idx && pts[i].dist2(site) >= 1e-24)
            .collect();
        order.sort_by(|&a, &b| {
            let key = |i: usize| (pts[i].dist2(site), ids[i], [pts[i].x, pts[i].y, pts[i].z]);
            key(a).partial_cmp(&key(b)).unwrap()
        });
        let mut poly = ConvexPolyhedron::from_aabb(start_box);
        for i in order {
            let plane = Plane::bisector(site, pts[i]).unwrap();
            poly.clip(&plane, Some(i as u64), eps);
        }
        poly
    }

    fn assert_same_bits(a: &ConvexPolyhedron, b: &ConvexPolyhedron, what: &str) {
        assert_eq!(a.verts.len(), b.verts.len(), "{what}");
        for (va, vb) in a.verts.iter().zip(&b.verts) {
            assert_eq!(va.x.to_bits(), vb.x.to_bits(), "{what}");
            assert_eq!(va.y.to_bits(), vb.y.to_bits(), "{what}");
            assert_eq!(va.z.to_bits(), vb.z.to_bits(), "{what}");
        }
        assert_eq!(a.volume().to_bits(), b.volume().to_bits(), "{what}");
    }

    #[test]
    fn lattice_center_cell_is_unit_cube() {
        let n = 7;
        let pts = lattice(n, 0.0);
        let region = Aabb::cube(n as f64);
        let center_idx = (n / 2) + n * ((n / 2) + n * (n / 2));
        let cell = cell_of(&pts, &region, center_idx);
        assert!(cell.complete);
        assert!(
            (cell.poly.volume() - 1.0).abs() < 1e-9,
            "vol {}",
            cell.poly.volume()
        );
        assert!((cell.poly.surface_area() - 6.0).abs() < 1e-9);
        assert!(cell.poly.check_closed());
        // only the 6 face neighbors touch the cell
        assert_eq!(cell.poly.neighbor_ids().count(), 6);
        // far fewer candidates than the full point set were tested
        assert!(
            cell.candidates_tested < pts.len() / 2,
            "{}",
            cell.candidates_tested
        );
    }

    #[test]
    fn security_radius_terminates_early_on_jittered_lattice() {
        // Interior cells stop at the security radius and test only a small
        // neighborhood of the full point set.
        let n = 9;
        let pts = lattice(n, 0.2);
        let region = Aabb::cube(n as f64);
        let idx = (n / 2) + n * ((n / 2) + n * (n / 2));
        let cell = cell_of(&pts, &region, idx);
        assert!(cell.complete);
        assert!(cell.poly.check_closed());
        assert!(cell.candidates_tested < 250, "{}", cell.candidates_tested);
    }

    #[test]
    fn support_reject_skips_most_of_the_ball_on_elongated_boundary_cells() {
        // A region that extends past the particle slab: cells of face sites
        // stretch into the empty margin and their security balls blow up.
        // Clipping every candidate in the ball would be dozens of O(verts)
        // classifications; the support-function reject proves most of those
        // lateral clips are no-ops and skips them without touching the poly.
        let n = 9;
        let pts = lattice(n, 0.2);
        let region = Aabb::cube(n as f64).grown(2.0);
        let idx = (n / 2) + n * (n / 2); // z-face site at (4.5, 4.5, ~0.5)
        let cell = cell_of(&pts, &region, idx);
        assert!(!cell.complete);
        let in_ball = pts
            .iter()
            .filter(|p| (1e-24..=cell.sec2).contains(&p.dist2(pts[idx])))
            .count();
        assert!(in_ball > 60, "{in_ball}");
        assert!(
            cell.candidates_tested * 3 < in_ball,
            "clipped {} of {in_ball} candidates in the security ball",
            cell.candidates_tested
        );
        assert!(cell.prefilter_skipped > 0, "reject never fired");
    }

    #[test]
    fn cells_match_the_brute_force_clip_bit_for_bit() {
        // Jittered points and an exact lattice (every shell an exact
        // distance tie, so the tie order decides the bits); ids scrambled so
        // id order and index order differ. Corner, edge, face and interior
        // sites: complete cells and incomplete ones alike.
        let n = 7;
        let region = Aabb::cube(n as f64);
        let ids: Vec<u64> = (0..(n * n * n) as u64).map(|i| (i * 37) % 343).collect();
        for jitter in [0.3, 0.0] {
            let pts = lattice(n, jitter);
            for idx in [0, 1, n * n, (n / 2) + n * ((n / 2) + n * (n / 2))] {
                let cell = cell_with_ids(&pts, &ids, &region, idx);
                let oracle = brute_force(&pts, &ids, &region, idx, 1e-9);
                let what = format!("jitter {jitter} site {idx}");
                assert_same_bits(&cell.poly, &oracle, &what);
                let na: Vec<u64> = cell.poly.neighbor_ids().collect();
                let nb: Vec<u64> = oracle.neighbor_ids().collect();
                assert_eq!(na, nb, "{what}");
            }
        }
    }

    #[test]
    fn incomplete_cell_bits_do_not_depend_on_the_point_order() {
        // What the rank count changes for a block is the order its ghosts
        // arrive in, i.e. the local index order of `points`. A kept
        // incomplete cell must not show it — even on an exact lattice,
        // where every shell is a distance tie.
        let n = 6;
        let pts = lattice(n, 0.0);
        let ids: Vec<u64> = (0..pts.len() as u64).collect();
        let region = Aabb::cube(n as f64);
        // corner site: clipped by the region walls, never complete
        let a = cell_with_ids(&pts, &ids, &region, 0);
        assert!(!a.complete);
        // same set, the other particles in reverse order
        let mut rp = pts.clone();
        let mut ri = ids.clone();
        rp[1..].reverse();
        ri[1..].reverse();
        let b = cell_with_ids(&rp, &ri, &region, 0);
        assert!(!b.complete);
        assert_same_bits(&a.poly, &b.poly, "corner cell");
        let neighbors = |c: &ComputedCell, ids: &[u64]| -> Vec<u64> {
            c.poly.neighbor_ids().map(|i| ids[i as usize]).collect()
        };
        assert_eq!(neighbors(&a, &ids), neighbors(&b, &ri));
    }

    #[test]
    fn boundary_cell_is_incomplete() {
        let n = 5;
        let pts = lattice(n, 0.0);
        let region = Aabb::cube(n as f64);
        // corner particle: its cell is clipped by the region walls
        let cell = cell_of(&pts, &region, 0);
        assert!(!cell.complete);
    }

    #[test]
    fn cell_contains_its_site_and_membership_is_correct() {
        // Brute-force verification of Eq. (1): every point of the cell is
        // nearer to the site than to any other particle.
        let n = 5;
        let pts = lattice(n, 0.3);
        let region = Aabb::cube(n as f64);
        let idx = 2 + n * (2 + n * 2);
        let site = pts[idx];
        let cell = cell_of(&pts, &region, idx);
        assert!(cell.poly.contains(site, 1e-9));
        // sample points inside the cell: centroid and face centroids
        let mut samples = vec![cell.poly.centroid()];
        for f in &cell.poly.faces {
            samples.push(cell.poly.face_centroid(f).lerp(site, 0.01));
        }
        for s in samples {
            let ds = s.dist2(site);
            for (qi, &q) in pts.iter().enumerate() {
                if qi != idx {
                    assert!(
                        ds <= q.dist2(s) + 1e-7,
                        "cell point {s} closer to particle {qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_points_split_the_region() {
        let pts = vec![Vec3::new(1.0, 2.0, 2.0), Vec3::new(3.0, 2.0, 2.0)];
        let region = Aabb::cube(4.0);
        let cell = cell_of(&pts, &region, 0);
        // half the box
        assert!((cell.poly.volume() - 32.0).abs() < 1e-9);
        // bounded by walls → incomplete
        assert!(!cell.complete);
        assert_eq!(cell.poly.neighbor_ids().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn coincident_particles_do_not_crash() {
        let pts = vec![
            Vec3::splat(2.0),
            Vec3::splat(2.0), // exact duplicate
            Vec3::new(1.0, 2.0, 2.0),
        ];
        let region = Aabb::cube(4.0);
        let cell = cell_of(&pts, &region, 0);
        assert!(!cell.poly.is_empty());
        assert!(cell.poly.volume() > 0.0);
    }

    #[test]
    fn complete_cell_bits_do_not_depend_on_the_region() {
        // The canonical-start-box contract: compute an interior cell once
        // with a tight region and once with a grown region (more known
        // space, different grid geometry, a larger candidate cap) while
        // keeping the same clip_box. Complete cells must agree bit for bit.
        let n = 7;
        let pts = lattice(n, 0.25);
        let tight = Aabb::cube(n as f64);
        let grown = tight.grown(1.5);
        let idx = (n / 2) + n * ((n / 2) + n * (n / 2));
        let ids: Vec<u64> = (0..pts.len() as u64).collect();

        let run = |region: &Aabb| {
            let grid = CandidateGrid::build(*region, &pts, 2.0);
            let ctx = CellContext {
                points: &pts,
                ids: &ids,
                grid: &grid,
                region,
                clip_box: &grown, // same canonical box for both runs
                canon_extent: None,
                eps: 1e-9,
            };
            compute_cell(&ctx, pts[idx], idx as u32, &mut CellScratch::default())
        };

        let a = run(&tight);
        let b = run(&grown);
        assert!(a.complete && b.complete);
        assert_same_bits(&a.poly, &b.poly, "tight vs grown region");
        let na: Vec<u64> = a.poly.neighbor_ids().collect();
        let nb: Vec<u64> = b.poly.neighbor_ids().collect();
        assert_eq!(na, nb);
    }
}
