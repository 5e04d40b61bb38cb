//! Uniform binning, the one spatial index of the crate, and the
//! distance-ordered candidate stream built on it.
//!
//! [`Bins`] sorts points into a uniform grid of bins over a box in CSR form
//! — `u32` bin offsets and `u32` member indices, ascending within a bin.
//! Every spatial question `tess` answers walks one: the cell kernel's and
//! the FOF finder's candidate streams ([`CandidateGrid`]), the service's
//! point, box and region answers (one site grid per block, which point
//! lookups walk ring by ring under the same [`Bins::ring_lb`] as the
//! stream) and the incremental epochs' dirtiness test (the moved-set ball
//! test).
//!
//! The local cell computation needs candidate neighbors in order of
//! distance from a site so the security-radius test terminates early. The
//! bins over the ghosted block region give candidates in Chebyshev "rings"
//! of bins, each scanned in place as a few row slices; the minimum possible
//! distance to the next ring (which knows on which sides of the center a
//! ring still has bins) provides the lower bound used by the termination
//! test.
//!
//! The **candidate stream** ([`CandidateGrid::stream`]) sits on top of the
//! binning and emits candidates one at a time in the canonical clip order —
//! exact squared distance, then global id, then position. Each fetched ring
//! is prefiltered by an SoA `f32` distance test with a provably
//! conservative slack before the exact `f64` distance is computed; the
//! survivors within the caller's bound wait unsorted in the pending
//! distance shells. Only the ones that have become emittable — closer than
//! every unfetched ring — are sorted, on the integer bits of their distance
//! with id and position read only on an exact tie; the ones the shrinking
//! bound has passed are dropped unsorted. The order is a function of the
//! point *set* alone: neither the local index order of the points nor the
//! grid geometry can show in it.

use std::ops::Range;

use geometry::{Aabb, Vec3};

/// Points binned on a uniform grid over `bounds`, in CSR form: bin `b`
/// holds the point indices `items[start[b]..start[b + 1]]`, ascending.
/// Bin `(x, y, z)` is `b = x + dims[0] · (y + dims[1] · z)`, so the bins of
/// one row are adjacent and a run of them is one slice of `items`.
///
/// A point outside `bounds` lands in the nearest edge bin; a point with a
/// NaN coordinate joins no bin.
pub(crate) struct Bins {
    bounds: Aabb,
    dims: [usize; 3],
    /// Bins per unit length; 0 on an axis with one bin.
    inv_h: Vec3,
    /// Per-axis bin edges.
    h: [f64; 3],
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Bins {
    /// Bin `points` over `bounds`, aiming at about `per_bin` points per
    /// bin: cubic bins of the volume that holds that many on average, at
    /// most 256 per axis. An axis of zero or non-finite extent gets one
    /// bin, and the volume is taken over the others.
    pub(crate) fn build(bounds: Aabb, points: &[Vec3], per_bin: f64) -> Bins {
        let target = (points.len().max(1) as f64 / per_bin).max(1.0);
        let e = bounds.extent();
        let split = [0, 1, 2].map(|a| e[a] > 0.0 && e[a].is_finite());
        let k = split.iter().filter(|&&s| s).count();
        let mut dims = [1usize; 3];
        if k > 0 {
            let vol = (0..3)
                .filter(|&a| split[a])
                .fold(1.0, |v, a| v * e[a])
                .max(1e-300);
            let h = (vol / target).powf(1.0 / k as f64);
            for a in (0..3).filter(|&a| split[a]) {
                dims[a] = ((e[a] / h).ceil() as usize).clamp(1, 256);
            }
        }
        let h = [0, 1, 2].map(|a| e[a] / dims[a] as f64);
        let inv = |a: usize| if dims[a] > 1 { 1.0 / h[a] } else { 0.0 };
        let nbins = dims[0] * dims[1] * dims[2];
        let mut bins = Bins {
            bounds,
            dims,
            inv_h: Vec3::new(inv(0), inv(1), inv(2)),
            h,
            start: vec![0; nbins + 2],
            items: Vec::new(),
        };
        // A counting sort, so members land in ascending index order: count
        // bin `b` at `start[b + 2]`, take prefix sums, then fill with
        // `start[b + 1]` as bin `b`'s cursor, which leaves it at bin
        // `b + 1`'s first member.
        let bin_of = |bins: &Bins, p: Vec3| {
            let nan = p.x.is_nan() || p.y.is_nan() || p.z.is_nan();
            let c = [0, 1, 2].map(|a| bins.coord(a, p[a]));
            (!nan).then(|| c[0] + dims[0] * (c[1] + dims[1] * c[2]))
        };
        for &p in points {
            if let Some(b) = bin_of(&bins, p) {
                bins.start[b + 2] += 1;
            }
        }
        for b in 2..bins.start.len() {
            bins.start[b] += bins.start[b - 1];
        }
        bins.items = vec![0; bins.start[nbins + 1] as usize];
        for (i, &p) in points.iter().enumerate() {
            if let Some(b) = bin_of(&bins, p) {
                let slot = &mut bins.start[b + 1];
                bins.items[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        bins.start.pop();
        bins
    }

    pub(crate) fn bounds(&self) -> Aabb {
        self.bounds
    }

    pub(crate) fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Bin coordinate of `x` on axis `a`, clamped to the grid: monotone in
    /// `x`, and 0 for NaN.
    #[inline]
    pub(crate) fn coord(&self, a: usize, x: f64) -> usize {
        (((x - self.bounds.min[a]) * self.inv_h[a]) as isize).clamp(0, self.dims[a] as isize - 1)
            as usize
    }

    /// Unclamped bin coordinate of `x` on axis `a`: `floor` of its offset
    /// from `bounds.min` in bins, saturating; 0 on a one-bin axis.
    pub(crate) fn raw_coord(&self, a: usize, x: f64) -> isize {
        ((x - self.bounds.min[a]) * self.inv_h[a]).floor() as isize
    }

    /// Largest ring index that can contain any bin, from any center.
    pub(crate) fn max_ring(&self) -> usize {
        self.dims.iter().max().copied().unwrap_or(1)
    }

    /// Center-aware lower bound on the distance from a center at `rel`
    /// from `bounds.min`, in (clamped) bin `c`, to any point in a bin at
    /// Chebyshev ring `r` around `c`.
    ///
    /// Per axis, the plus side is attainable only while `c+r` is still a
    /// valid bin index (and symmetrically for the minus side); an
    /// attainable side's gap is the exact distance from the center to the
    /// near wall of the ring-`r` bin slab, not the worst-case `(r-1)·h`, so
    /// it holds for a center outside `bounds` too. `+∞` when no side of any
    /// axis is attainable — the ring (and, since attainability only shrinks
    /// with `r`, every later ring) is empty. Non-decreasing in `r`, which
    /// is what makes the candidate stream's sorted emission proof go
    /// through. It bounds *computed* distances (`Vec3::dist2`) too: it is
    /// pulled in by the [`rounding_slack`] of `scale` (the points' and the
    /// caller's coordinate magnitude) or of the center's, the larger.
    pub(crate) fn ring_lb(&self, rel: [f64; 3], c: [usize; 3], r: usize, scale: f64) -> f64 {
        if r == 0 {
            return 0.0;
        }
        let mut bound = f64::INFINITY;
        for a in 0..3 {
            let h = self.h[a];
            if c[a] + r < self.dims[a] {
                // near wall of the +side ring slab is at (c+r)·h
                bound = bound.min(((c[a] + r) as f64 * h - rel[a]).max(0.0));
            }
            if c[a] >= r {
                // near wall of the -side ring slab is at (c-r+1)·h
                bound = bound.min((rel[a] - (c[a] - r + 1) as f64 * h).max(0.0));
            }
        }
        let scale = rel.iter().fold(scale, |s, x| s.max(x.abs()));
        (bound - rounding_slack(scale)).max(0.0)
    }

    /// Members of bins `x` of row `(y, z)`.
    #[inline]
    pub(crate) fn row(&self, y: usize, z: usize, x: Range<usize>) -> &[u32] {
        let row = self.dims[0] * (y + self.dims[1] * z);
        &self.items[self.start[row + x.start] as usize..self.start[row + x.end] as usize]
    }

    /// Hand `f` the members of the Chebyshev ring `r` of bins around bin
    /// `c`, which must lie in the grid (`r = 0` is bin `c` itself): rows
    /// `z`-major then `y`, a row on the ring's shell as one slice, any
    /// other row as its two end bins.
    #[inline]
    pub(crate) fn ring(&self, c: [usize; 3], r: usize, mut f: impl FnMut(&[u32])) {
        let span = |a: usize| c[a].saturating_sub(r)..(c[a] + r + 1).min(self.dims[a]);
        let xs = span(0);
        for z in span(2) {
            for y in span(1) {
                if z.abs_diff(c[2]) == r || y.abs_diff(c[1]) == r {
                    f(self.row(y, z, xs.clone()));
                    continue;
                }
                // Off the shell in y and z, so r >= 1: only the end bins.
                if c[0] >= r {
                    f(self.row(y, z, c[0] - r..c[0] - r + 1));
                }
                if c[0] + r < self.dims[0] {
                    f(self.row(y, z, c[0] + r..c[0] + r + 1));
                }
            }
        }
    }
}

/// How far a distance lower bound is pulled in so that it also bounds
/// *computed* distances, where `scale` bounds every coordinate magnitude
/// involved: binning, a wall or box position and the distance each round a
/// few times at that magnitude (≲ 5 eps·scale in all), and a point on a bin
/// wall can measure a few ulps closer than the wall does.
pub(crate) fn rounding_slack(scale: f64) -> f64 {
    8.0 * f64::EPSILON * scale
}

/// [`Bins`] with the `f32` coordinates the candidate stream prefilters on.
pub struct CandidateGrid {
    bins: Bins,
    /// SoA coordinates relative to `bounds.min`, in `f32`, for the
    /// prefilter (structure-of-arrays so the per-ring scan stays linear).
    sx: Vec<f32>,
    sy: Vec<f32>,
    sz: Vec<f32>,
    /// Largest |coordinate relative to `bounds.min`| that enters a distance
    /// or ring-bound subtraction: stored points and any center inside the
    /// bounds. Rounding slacks are multiples of `eps · scale`.
    scale: f64,
}

impl CandidateGrid {
    /// Build a grid over `bounds` holding `points`, aiming at about
    /// `per_bin` points per bin.
    pub fn build(bounds: Aabb, points: &[Vec3], per_bin: f64) -> Self {
        let bins = Bins::build(bounds, points, per_bin);
        let e = bounds.extent();
        let mut scale = e.x.max(e.y).max(e.z);
        let (mut sx, mut sy, mut sz) = (
            Vec::with_capacity(points.len()),
            Vec::with_capacity(points.len()),
            Vec::with_capacity(points.len()),
        );
        for &p in points {
            let rel = p - bounds.min;
            sx.push(rel.x as f32);
            sy.push(rel.y as f32);
            sz.push(rel.z as f32);
            scale = scale.max(rel.x.abs()).max(rel.y.abs()).max(rel.z.abs());
        }
        CandidateGrid {
            bins,
            sx,
            sy,
            sz,
            scale: scale.max(1e-300),
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.bins.dims
    }

    /// [`Bins::ring_lb`] around a point.
    #[cfg(test)]
    fn ring_min_distance_from(&self, center: Vec3, r: usize) -> f64 {
        let rel = center - self.bins.bounds.min;
        self.bins
            .ring_lb([rel.x, rel.y, rel.z], self.coords_of(center), r, self.scale)
    }

    fn coords_of(&self, p: Vec3) -> [usize; 3] {
        [0, 1, 2].map(|a| self.bins.coord(a, p[a]))
    }

    /// Point indices in the Chebyshev ring `r` of bins around `center`
    /// (`r = 0` is the center bin itself).
    #[cfg(test)]
    fn ring_candidates(&self, center: Vec3, r: usize, out: &mut Vec<u32>) {
        out.clear();
        self.bins
            .ring(self.coords_of(center), r, |s| out.extend_from_slice(s));
    }

    /// `f32` threshold such that `d2f > threshold` proves the exact
    /// squared distance exceeds `bound2` (conservative: no true candidate
    /// is ever rejected).
    ///
    /// Each f32 component difference errs by at most ~3 eps32·scale (two
    /// conversions + one subtraction), the 3-axis norm by √3 of that, so a
    /// true distance `d` always measures at least `d - 8 eps32·scale`; the
    /// squaring and summation rounding is relative and absorbed by the
    /// 1e-6 factor.
    #[inline]
    fn prefilter_bound(&self, bound2: f64) -> f32 {
        if !bound2.is_finite() {
            return f32::INFINITY;
        }
        let slack = 8.0 * (f32::EPSILON as f64) * self.scale;
        ((bound2.sqrt() + slack).powi(2) * (1.0 + 1e-6)) as f32
    }

    /// Squared distance in `f32` between stored point `i` and a center
    /// given relative to `bounds.min`.
    #[inline]
    fn rel_dist2_f32(&self, i: u32, c: [f32; 3]) -> f32 {
        let i = i as usize;
        let dx = self.sx[i] - c[0];
        let dy = self.sy[i] - c[1];
        let dz = self.sz[i] - c[2];
        dx * dx + dy * dy + dz * dz
    }

    /// Open a candidate stream around `center`, ordered by (exact squared
    /// distance, global id, position). `points` must be the slice the grid
    /// was built from and `ids` the global id of each entry; `skip` is an
    /// index to omit (the site itself; pass `u32::MAX` to keep everything).
    pub fn stream<'a>(
        &'a self,
        points: &'a [Vec3],
        ids: &'a [u64],
        center: Vec3,
        skip: u32,
        scratch: &'a mut StreamScratch,
    ) -> NeighborStream<'a> {
        scratch.pending.clear();
        scratch.ready.clear();
        let rel = center - self.bins.bounds.min;
        NeighborStream {
            grid: self,
            points,
            ids,
            center,
            center_rel32: [rel.x as f32, rel.y as f32, rel.z as f32],
            center_rel: [rel.x, rel.y, rel.z],
            coords: self.coords_of(center),
            skip,
            next_ring: 0,
            cur_lb2: 0.0,
            head: 0,
            prefilter_skipped: 0,
            sorted: 0,
            scratch,
        }
    }
}

/// Reusable buffers for [`NeighborStream`] (distance shells and ready
/// queue), owned by the caller so streaming millions of cells allocates
/// nothing in steady state.
#[derive(Default)]
pub struct StreamScratch {
    /// Fetched candidates not yet emittable, unsorted: `(d2, index)`.
    pending: Vec<(f64, u32)>,
    /// Emittable candidates in canonical order, consumed from `head`.
    ready: Vec<(f64, u32)>,
}

/// Lazy ordered merge of the grid rings around one center.
///
/// [`NeighborStream::next`] takes the caller's current squared search
/// bound, which must be **non-increasing** across calls (the security
/// radius only shrinks as the cell is clipped). Candidates are emitted in
/// the canonical clip order — non-decreasing exact distance, exact ties by
/// global id, then position (distinct periodic images of one particle can
/// tie in both distance and id); `None` means no remaining candidate lies
/// within the bound — and since the bound never grows, none ever will.
///
/// Internally: rings are fetched one at a time; each candidate that passes
/// the `f32` prefilter and lies within the bound is appended, unsorted, to
/// the *pending* distance shells. Candidates move to the *ready* queue once
/// their distance is strictly below the lower bound of the next unfetched
/// ring — nothing unfetched or still pending can then precede them — and
/// only then are they sorted: on the bits of `d2` (a non-negative float
/// sorts like its bit pattern), each run of equal distances then by id and
/// position. Pending entries beyond the bound are dropped unsorted; the
/// bound never grows, so they could never be emitted. The strict `<` keeps
/// an exact tie from straddling ready and pending (both sides compare the
/// same `d2` against the same bound), which is what makes the emission
/// order a function of the point set and not of the grid.
pub struct NeighborStream<'a> {
    grid: &'a CandidateGrid,
    points: &'a [Vec3],
    ids: &'a [u64],
    center: Vec3,
    center_rel32: [f32; 3],
    center_rel: [f64; 3],
    coords: [usize; 3],
    skip: u32,
    /// Next ring index to fetch.
    next_ring: usize,
    /// Squared lower bound on every not-yet-fetched candidate
    /// (= ring lower bound of `next_ring`, squared).
    cur_lb2: f64,
    /// Next entry of `scratch.ready` to emit.
    head: usize,
    prefilter_skipped: u64,
    sorted: u64,
    scratch: &'a mut StreamScratch,
}

impl NeighborStream<'_> {
    /// Next candidate within `bound2` in canonical order, or `None` when
    /// every remaining candidate provably lies beyond it.
    pub fn next(&mut self, bound2: f64) -> Option<(f64, u32)> {
        loop {
            if let Some(&(d2, i)) = self.scratch.ready.get(self.head) {
                if d2 > bound2 {
                    return None;
                }
                self.head += 1;
                return Some((d2, i));
            }
            // `ready` is spent, and every pending entry measures at least
            // `cur_lb2`: only a fetch that raises it can make one emittable.
            if self.cur_lb2 > bound2 {
                return None;
            }
            if self.next_ring > self.grid.bins.max_ring() {
                // rings exhausted: cur_lb2 = +∞ promoted every finite entry
                return None;
            }
            self.fetch_next_ring(bound2);
            self.promote(bound2);
        }
    }

    /// Candidates rejected by the `f32` prefilter so far.
    pub fn prefilter_skipped(&self) -> u64 {
        self.prefilter_skipped
    }

    /// Candidates sorted into emission order so far.
    pub fn sorted(&self) -> u64 {
        self.sorted
    }

    /// One pass over the pending shells, `ready` being spent: drop what
    /// lies beyond `bound2`, move what lies below `cur_lb2` into `ready`
    /// and sort it.
    fn promote(&mut self, bound2: f64) {
        let StreamScratch { pending, ready } = &mut *self.scratch;
        ready.clear();
        self.head = 0;
        let lb2 = self.cur_lb2;
        pending.retain(|&(d2, i)| {
            if d2 > bound2 {
                return false;
            }
            if d2 < lb2 {
                ready.push((d2, i));
                return false;
            }
            true
        });
        self.sorted += ready.len() as u64;
        ready.sort_unstable_by_key(|&(d2, _)| d2.to_bits());
        // The one tie-break rule, read only on an exact distance tie:
        // global id, then position.
        let (points, ids) = (self.points, self.ids);
        for run in ready.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                run.sort_unstable_by(|&(_, a), &(_, b)| {
                    let (a, b) = (a as usize, b as usize);
                    let (pa, pb) = (points[a], points[b]);
                    ids[a]
                        .cmp(&ids[b])
                        .then_with(|| pa.x.total_cmp(&pb.x))
                        .then_with(|| pa.y.total_cmp(&pb.y))
                        .then_with(|| pa.z.total_cmp(&pb.z))
                });
            }
        }
    }

    fn fetch_next_ring(&mut self, bound2: f64) {
        let r = self.next_ring;
        self.next_ring = r + 1;
        let grid = self.grid;
        let pf = grid.prefilter_bound(bound2);
        let (points, center, center_rel32, skip) =
            (self.points, self.center, self.center_rel32, self.skip);
        let pending = &mut self.scratch.pending;
        let skipped = &mut self.prefilter_skipped;
        grid.bins.ring(self.coords, r, |members| {
            for &i in members {
                if i == skip {
                    continue;
                }
                if grid.rel_dist2_f32(i, center_rel32) > pf {
                    *skipped += 1;
                    continue;
                }
                let d2 = points[i as usize].dist2(center);
                if d2 <= bound2 {
                    pending.push((d2, i));
                }
            }
        });
        let lb = grid
            .bins
            .ring_lb(self.center_rel, self.coords, self.next_ring, grid.scale);
        self.cur_lb2 = lb * lb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<Vec3> {
        (0..n)
            .flat_map(|k| {
                (0..n).flat_map(move |j| {
                    (0..n).map(move |i| Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5))
                })
            })
            .collect()
    }

    fn jittered(n: usize, seed: u64, amp: f64) -> Vec<Vec3> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        lattice(n)
            .into_iter()
            .map(|p| {
                p + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                )
            })
            .collect()
    }

    fn seq_ids(pts: &[Vec3]) -> Vec<u64> {
        (0..pts.len() as u64).collect()
    }

    #[test]
    fn rings_partition_all_points() {
        // Every point with no NaN coordinate appears in exactly one ring
        // and a NaN point in none: on a lattice, on a flat set (an axis of
        // zero extent), on a set of one repeated point, and on a lattice
        // holding one NaN point.
        let flat: Vec<Vec3> = lattice(6).into_iter().filter(|p| p.z == 0.5).collect();
        let mut with_nan = lattice(6);
        with_nan[100] = Vec3::new(1.5, f64::NAN, 2.5);
        let cases = [
            (lattice(6), Aabb::cube(6.0)),
            (
                flat,
                Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(5.5, 5.5, 0.5)),
            ),
            (
                vec![Vec3::splat(1.25); 20],
                Aabb::new(Vec3::splat(1.25), Vec3::splat(1.25)),
            ),
            (with_nan, Aabb::cube(6.0)),
        ];
        for (case, (pts, bounds)) in cases.into_iter().enumerate() {
            let grid = CandidateGrid::build(bounds, &pts, 2.0);
            let center = Vec3::splat(3.0);
            let mut seen = vec![false; pts.len()];
            let mut buf = Vec::new();
            for r in 0..=grid.bins.max_ring() {
                grid.ring_candidates(center, r, &mut buf);
                for &i in &buf {
                    assert!(
                        !seen[i as usize],
                        "case {case}: point {i} appeared in two rings"
                    );
                    seen[i as usize] = true;
                }
            }
            for (i, p) in pts.iter().enumerate() {
                let nan = p.x.is_nan() || p.y.is_nan() || p.z.is_nan();
                assert_eq!(seen[i], !nan, "case {case}: point {i} at {p}");
            }
        }
    }

    #[test]
    fn ring_zero_is_center_bin_only() {
        let pts = lattice(4);
        let grid = CandidateGrid::build(Aabb::cube(4.0), &pts, 1.0);
        let mut buf = Vec::new();
        grid.ring_candidates(Vec3::splat(0.5), 0, &mut buf);
        // no duplicates
        let mut sorted = buf.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), buf.len());
    }

    #[test]
    fn ring_min_distance_is_a_valid_lower_bound() {
        let pts = lattice(8);
        let grid = CandidateGrid::build(Aabb::cube(8.0), &pts, 2.0);
        let center = Vec3::new(4.1, 3.9, 4.0);
        let mut buf = Vec::new();
        for r in 1..=grid.bins.max_ring() {
            let lb = grid.ring_min_distance_from(center, r);
            grid.ring_candidates(center, r, &mut buf);
            for &i in &buf {
                let d = pts[i as usize].dist(center);
                assert!(
                    d >= lb - 1e-12,
                    "ring {r}: point at distance {d} < bound {lb}"
                );
            }
        }
    }

    #[test]
    fn ring_min_distance_lower_bound_holds_on_anisotropic_grids() {
        // Flat slab: bins are much shorter in z than in x/y, so a bound
        // from the shortest bin edge would be far too pessimistic along x/y.
        let mut pts = Vec::new();
        for k in 0..4 {
            for j in 0..16 {
                for i in 0..16 {
                    pts.push(Vec3::new(
                        i as f64 + 0.5,
                        j as f64 + 0.5,
                        (k as f64 + 0.5) * 0.25,
                    ));
                }
            }
        }
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(16.0, 16.0, 1.0));
        let grid = CandidateGrid::build(bounds, &pts, 2.0);
        let [dx, dy, dz] = grid.dims();
        assert!(
            dz < dx && dz < dy,
            "slab should bin anisotropically: {:?}",
            grid.dims()
        );
        let center = Vec3::new(8.2, 7.8, 0.5);
        let mut buf = Vec::new();
        let mut some_ring_infeasible_in_z = false;
        for r in 1..=grid.bins.max_ring() {
            let lb = grid.ring_min_distance_from(center, r);
            if r >= dz {
                some_ring_infeasible_in_z = true;
                // z can no longer attain the Chebyshev max, so the bound
                // must come from the (larger) x/y edges.
                assert!(
                    lb >= (r - 1) as f64 * (16.0 / dx.max(dy) as f64) - 1e-12,
                    "ring {r}: bound {lb} not tightened past the z edge"
                );
            }
            grid.ring_candidates(center, r, &mut buf);
            for &i in &buf {
                let d = pts[i as usize].dist(center);
                assert!(
                    d >= lb - 1e-12,
                    "ring {r}: point at distance {d} < bound {lb}"
                );
            }
        }
        assert!(some_ring_infeasible_in_z);
        // Past every axis, rings are provably empty.
        assert!(grid
            .ring_min_distance_from(center, dx.max(dy).max(dz))
            .is_infinite());
    }

    #[test]
    fn center_aware_bound_drops_axes_the_center_has_exhausted() {
        // On a strongly anisotropic grid (short z axis, h[z] < h[x]) a
        // center whose z bin is within one bin of *both* z block faces has
        // no ring-`r` bin on either z side for `r >= 2`, so the lower bound
        // is set by the (much larger) x/y gaps, not by the sub-bin z gap a
        // center-free bound would have to report. The bound must see that
        // and still be valid everywhere.
        //
        // Slab sized so the builder picks dims [16, 16, 3]: h[x] = 1 but
        // h[z] = 2.05/3 ≈ 0.683 — genuinely anisotropic bin edges.
        let mut pts = Vec::new();
        for k in 0..4 {
            for j in 0..16 {
                for i in 0..16 {
                    pts.push(Vec3::new(
                        i as f64 + 0.5,
                        j as f64 + 0.5,
                        (k as f64 + 0.5) * 2.05 / 4.0,
                    ));
                }
            }
        }
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(16.0, 16.0, 2.05));
        let grid = CandidateGrid::build(bounds, &pts, 2.0);
        assert_eq!(grid.dims(), [16, 16, 3], "test geometry drifted");
        let [dx, _dy, dz] = grid.dims();
        let (hx, hz) = (16.0 / dx as f64, 2.05 / dz as f64);
        assert!(hz < hx * 0.75, "need anisotropic edges: hx {hx} hz {hz}");
        // center mid-bin in x/y, in the middle z bin — one bin from both
        // z faces of the block
        let center = Vec3::new(8.5, 7.5, 1.025);
        let mut buf = Vec::new();
        for r in 1..grid.bins.max_ring() {
            let aware = grid.ring_min_distance_from(center, r);
            // validity: every ring-r candidate is at least `aware` away
            grid.ring_candidates(center, r, &mut buf);
            for &i in &buf {
                let d = pts[i as usize].dist(center);
                assert!(
                    d >= aware - 1e-12,
                    "ring {r}: point at distance {d} < center-aware bound {aware}"
                );
            }
            if r == 2 {
                // both z sides are exhausted at r = 2 (middle bin of 3), so
                // the bound is the mid-bin x/y gap of 1.5·h[x], more than a
                // whole bin edge past the (r-1)·h[z] z gap
                assert!(
                    (aware - 1.5 * hx).abs() < 1e-9,
                    "ring {r}: aware {aware} expected {}",
                    1.5 * hx
                );
                assert!(aware > (r - 1) as f64 * hz + hz);
            }
            // monotonicity in r (the sorted-emission proof rests on it)
            if r > 1 {
                assert!(
                    aware >= grid.ring_min_distance_from(center, r - 1) - 1e-15,
                    "ring bound decreased at r={r}"
                );
            }
        }
    }

    #[test]
    fn stream_emits_every_candidate_in_nondecreasing_distance() {
        let pts = jittered(6, 11, 0.4);
        let grid = CandidateGrid::build(Aabb::cube(6.0), &pts, 2.0);
        let ids = seq_ids(&pts);
        for (skip, center) in [(17u32, pts[17]), (u32::MAX, Vec3::new(0.1, 5.7, 2.3))] {
            let mut scratch = StreamScratch::default();
            let mut stream = grid.stream(&pts, &ids, center, skip, &mut scratch);
            let mut got = Vec::new();
            let mut last = 0.0f64;
            while let Some((d2, i)) = stream.next(f64::MAX) {
                assert!(d2 >= last, "distance decreased: {d2} after {last}");
                assert!((pts[i as usize].dist2(center) - d2).abs() == 0.0);
                last = d2;
                got.push(i);
            }
            let mut expect: Vec<u32> = (0..pts.len() as u32).filter(|&i| i != skip).collect();
            expect.sort_unstable();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, expect, "stream must visit every candidate");
        }
    }

    #[test]
    fn stream_respects_a_shrinking_bound_and_never_stops_early() {
        // With a bound that shrinks between calls, the stream must still
        // deliver every candidate inside the *final* bound before
        // returning None (the security-radius contract).
        let pts = jittered(5, 3, 0.45);
        let grid = CandidateGrid::build(Aabb::cube(5.0), &pts, 2.0);
        let center = pts[31];
        let bounds_seq = [9.0f64, 4.0, 2.5, 2.5, 1.4];
        let mut scratch = StreamScratch::default();
        let ids = seq_ids(&pts);
        let mut stream = grid.stream(&pts, &ids, center, 31, &mut scratch);
        let mut emitted = Vec::new();
        let mut k = 0usize;
        loop {
            let bound2 = bounds_seq[k.min(bounds_seq.len() - 1)];
            match stream.next(bound2) {
                Some((d2, i)) => {
                    assert!(d2 <= bound2);
                    emitted.push(i);
                    k += 1;
                }
                None => break,
            }
        }
        let final_bound = *bounds_seq.last().unwrap();
        for (i, &p) in pts.iter().enumerate() {
            if i == 31 {
                continue;
            }
            if p.dist2(center) <= final_bound {
                assert!(
                    emitted.contains(&(i as u32)),
                    "candidate {i} inside the final bound was never emitted"
                );
            }
        }
    }

    /// Canonical entry of point `i` seen from `center`: (d2, id, position).
    type Entry = (f64, u64, [f64; 3]);

    fn entry(pts: &[Vec3], ids: &[u64], center: Vec3, i: u32) -> Entry {
        let p = pts[i as usize];
        (p.dist2(center), ids[i as usize], [p.x, p.y, p.z])
    }

    fn canonical_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then_with(|| a.2[0].total_cmp(&b.2[0]))
            .then_with(|| a.2[1].total_cmp(&b.2[1]))
            .then_with(|| a.2[2].total_cmp(&b.2[2]))
    }

    #[test]
    fn stream_emits_exactly_the_canonical_sequence_cut_at_the_running_bound() {
        // Exact-sequence oracle: whatever the point set and whatever
        // non-increasing bound schedule the caller drives it with, the
        // stream's k-th answer is the k-th entry of the brute-force
        // canonical sort when that entry lies within the bound of call k,
        // and `None` at the first call where it does not. Point sets:
        // jittered lattices, exact lattices (every shell a set of exact
        // ties), points within ulps of the bin walls plus their mirror
        // images, and a lattice holding one particle twice as periodic
        // images with the same id. Schedules start at +∞ (a point lookup)
        // or at a finite radius and shrink by random factors or onto the
        // exact distance of a later candidate.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(37);
        let mut scratch = StreamScratch::default();
        for case in 0..400 {
            let n = rng.gen_range(3..7usize);
            let side = n as f64;
            let mut per_bin = rng.gen_range(1.0..4.0);
            let (mut pts, region) = match case % 4 {
                0 => (
                    jittered(n, case, rng.gen_range(0.05..0.5)),
                    Aabb::cube(side),
                ),
                1 => (lattice(n), Aabb::cube(side)),
                2 => {
                    // random fill plus points on both sides of every x
                    // wall, level with a random center, and their mirrors
                    let region = Aabb::cube(side);
                    let nfill = rng.gen_range(8..120usize);
                    let mut pts: Vec<Vec3> = (0..nfill)
                        .map(|_| {
                            Vec3::new(
                                rng.gen_range(0.0..side),
                                rng.gen_range(0.0..side),
                                rng.gen_range(0.0..side),
                            )
                        })
                        .collect();
                    let probe = CandidateGrid::build(region, &pts, 2.0);
                    let c = pts[0];
                    for k in 1..probe.dims()[0] {
                        let wall = k as f64 * probe.bins.h[0];
                        for du in -2i64..=2 {
                            let x = f64::from_bits((wall.to_bits() as i64 + du) as u64);
                            let mirror = c.x - (x - c.x);
                            pts.push(Vec3::new(x, c.y, c.z));
                            if (0.0..side).contains(&mirror) {
                                pts.push(Vec3::new(mirror, c.y, c.z));
                            }
                        }
                    }
                    // same bins as the probe
                    per_bin = 2.0 * pts.len() as f64 / nfill as f64;
                    (pts, region)
                }
                _ => (lattice(n), Aabb::cube(side).grown(1.0)),
            };
            let mut ids: Vec<u64> = (0..pts.len() as u64)
                .map(|i| (i * 37) % pts.len() as u64)
                .collect();
            if case % 4 == 3 {
                // periodic image of the particle at x = 0.5 across x = n
                let left = rng.gen_range(0..n * n) * n;
                pts.push(pts[left] + Vec3::new(side, 0.0, 0.0));
                ids.push(ids[left]);
            }
            let grid = CandidateGrid::build(region, &pts, per_bin);
            // Own site (skipped) or a free center; on the lattices the free
            // center sits on half-integers so ties abound.
            let (center, skip) = match rng.gen_range(0..3) {
                0 => {
                    let s = rng.gen_range(0..pts.len());
                    (pts[s], s as u32)
                }
                1 if case % 4 == 1 || case % 4 == 3 => {
                    let h =
                        |rng: &mut rand_chacha::ChaCha8Rng| rng.gen_range(0..=2 * n) as f64 * 0.5;
                    (Vec3::new(h(&mut rng), h(&mut rng), h(&mut rng)), u32::MAX)
                }
                _ => (
                    Vec3::new(
                        rng.gen_range(0.0..side),
                        rng.gen_range(0.0..side),
                        rng.gen_range(0.0..side),
                    ),
                    u32::MAX,
                ),
            };
            let mut want: Vec<Entry> = (0..pts.len() as u32)
                .filter(|&i| i != skip)
                .map(|i| entry(&pts, &ids, center, i))
                .collect();
            want.sort_by(canonical_cmp);

            let mut bound2 = if rng.gen_bool(0.5) {
                f64::INFINITY
            } else {
                want[want.len() / 2].0 * rng.gen_range(0.5..2.0)
            };
            let lookup = rng.gen_bool(0.25);
            let mut stream = grid.stream(&pts, &ids, center, skip, &mut scratch);
            for k in 0..=want.len() {
                let expect = want.get(k).filter(|e| e.0 <= bound2).copied();
                let got = stream
                    .next(bound2)
                    .map(|(d2, i)| (d2, entry(&pts, &ids, center, i)));
                if let Some((d2, e)) = got {
                    assert_eq!(d2.to_bits(), e.0.to_bits(), "case {case}: d2 not exact");
                }
                assert_eq!(
                    got.map(|g| g.1),
                    expect,
                    "case {case}, call {k}, bound2 {bound2}"
                );
                if expect.is_none() {
                    break;
                }
                // shrink the bound (never grow it), unless a lookup
                if !lookup {
                    bound2 = match rng.gen_range(0..4) {
                        0 => bound2,
                        1 => bound2 * rng.gen_range(0.5..1.0),
                        _ => bound2.min(want[rng.gen_range(k..want.len())].0),
                    };
                }
            }
        }
    }

    #[test]
    fn exact_ties_emit_in_canonical_order_whatever_the_index_order_or_grid() {
        // An exact lattice seen from a face-centre: every shell is a set of
        // exact distance ties. Ids are scrambled so id order differs from
        // index order, and one particle appears as two periodic images that
        // tie in distance *and* id from this center.
        let mut pts = lattice(5);
        let mut ids: Vec<u64> = (0..pts.len() as u64).map(|i| (i * 37) % 125).collect();
        let center = Vec3::new(3.0, 2.5, 2.5);
        let left = pts
            .iter()
            .position(|&p| p == Vec3::new(0.5, 2.5, 2.5))
            .unwrap();
        pts.push(Vec3::new(5.5, 2.5, 2.5));
        ids.push(ids[left]);

        let emitted = |pts: &[Vec3], ids: &[u64], region: Aabb| {
            let grid = CandidateGrid::build(region, pts, 2.0);
            let mut scratch = StreamScratch::default();
            let mut stream = grid.stream(pts, ids, center, u32::MAX, &mut scratch);
            let mut seq = Vec::new();
            while let Some((d2, i)) = stream.next(f64::MAX) {
                let p = pts[i as usize];
                seq.push((d2, ids[i as usize], [p.x, p.y, p.z]));
            }
            seq
        };

        let region = Aabb::cube(5.0).grown(1.0);
        let reference = emitted(&pts, &ids, region);
        let mut sorted = reference.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(reference, sorted, "not in (d2, id, position) order");
        assert_eq!(reference.len(), pts.len());
        let images = reference.iter().filter(|e| e.1 == ids[left]).count();
        assert_eq!(images, 2, "both periodic images must be emitted");

        // local index order reversed
        let (rp, ri): (Vec<Vec3>, Vec<u64>) = pts
            .iter()
            .rev()
            .copied()
            .zip(ids.iter().rev().copied())
            .unzip();
        assert_eq!(emitted(&rp, &ri, region), reference, "index order showed");
        // grid rebuilt over a grown region: different bins, different rings
        assert_eq!(
            emitted(&pts, &ids, region.grown(1.7)),
            reference,
            "grid geometry showed"
        );
    }

    #[test]
    fn prefilter_skips_far_candidates_but_never_true_ones() {
        let pts = jittered(7, 5, 0.3);
        let grid = CandidateGrid::build(Aabb::cube(7.0), &pts, 2.0);
        let center = pts[100];
        let bound2 = 2.25f64; // radius 1.5 in a box of extent 7
        let mut scratch = StreamScratch::default();
        let ids = seq_ids(&pts);
        let mut stream = grid.stream(&pts, &ids, center, 100, &mut scratch);
        let mut got = Vec::new();
        while let Some((_, i)) = stream.next(bound2) {
            got.push(i);
        }
        let skipped = stream.prefilter_skipped();
        // exact oracle: every point within the bound must be emitted
        let expect: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != 100 && p.dist2(center) <= bound2)
            .map(|(i, _)| i as u32)
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort_unstable();
        assert_eq!(got_sorted, expect_sorted);
        assert!(skipped > 0, "prefilter never fired on a far-candidate scan");
    }

    #[test]
    fn handles_empty_and_single_point() {
        let grid = CandidateGrid::build(Aabb::cube(1.0), &[], 2.0);
        let mut buf = Vec::new();
        grid.ring_candidates(Vec3::splat(0.5), 0, &mut buf);
        assert!(buf.is_empty());
        let mut scratch = StreamScratch::default();
        let mut stream = grid.stream(&[], &[], Vec3::splat(0.5), u32::MAX, &mut scratch);
        assert!(stream.next(f64::MAX).is_none());

        let pts = [Vec3::splat(0.2)];
        let grid = CandidateGrid::build(Aabb::cube(1.0), &pts, 2.0);
        grid.ring_candidates(Vec3::splat(0.9), 0, &mut buf);
        assert_eq!(buf, vec![0]);
        let mut stream = grid.stream(&pts, &[7], Vec3::splat(0.9), u32::MAX, &mut scratch);
        assert_eq!(stream.next(f64::MAX).map(|(_, i)| i), Some(0));
        assert!(stream.next(f64::MAX).is_none());
    }

    #[test]
    fn out_of_bounds_queries_clamp() {
        // A center outside the grid clamps to an edge bin, and the ring
        // bound stays geometric: every member of ring `r` measures at least
        // it, computed distances included, with no tolerance.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let pts = jittered(6, 4, 0.5);
        let grid = CandidateGrid::build(Aabb::cube(6.0), &pts, 2.0);
        let mut buf = Vec::new();
        for _ in 0..200 {
            let mut c = || rng.gen_range(-20.0..26.0);
            let center = Vec3::new(c(), c(), c());
            for r in 0..=grid.bins.max_ring() {
                let lb = grid.ring_min_distance_from(center, r);
                grid.ring_candidates(center, r, &mut buf);
                for &i in &buf {
                    let d2 = pts[i as usize].dist2(center);
                    assert!(d2 >= lb * lb, "ring {r} around {center}: {d2} < {lb}²");
                }
            }
        }
    }

    #[test]
    fn emission_order_is_canonical_when_candidates_hug_the_bin_walls() {
        // The ring lower bound is computed in floats and can exceed the
        // *computed* distance of a candidate sitting on a bin wall by a few
        // ulps. Points placed within ulps of every x wall, level with the
        // center, plus their mirror images through the center (near-exact
        // distance ties that land in an earlier ring when the center sits
        // high in its bin) are the worst case: without the rounding slack
        // in the ring bound a mirror pops before its wall twin is even
        // fetched (case 269 is the first). The emitted sequence must equal
        // the brute-force sort.
        use rand::{Rng, SeedableRng};
        fn rand3(rng: &mut impl Rng, lo: f64, hi: Vec3) -> Vec3 {
            Vec3::new(
                rng.gen_range(lo..hi.x),
                rng.gen_range(lo..hi.y),
                rng.gen_range(lo..hi.z),
            )
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut scratch = StreamScratch::default();
        for case in 0..400 {
            let ext = rand3(&mut rng, 1.0, Vec3::splat(20.0));
            let min = rand3(&mut rng, -10.0, Vec3::splat(10.0));
            let bounds = Aabb::new(min, min + ext);
            let nfill = rng.gen_range(8..300usize);
            let mut pts: Vec<Vec3> = (0..nfill)
                .map(|_| min + rand3(&mut rng, 0.0, ext))
                .collect();
            let center = min + rand3(&mut rng, 0.0, ext);
            let probe = CandidateGrid::build(bounds, &pts, 2.0);
            for k in 1..probe.dims()[0] {
                let wall = k as f64 * probe.bins.h[0];
                for du in -2i64..=2 {
                    let relx = f64::from_bits((wall.to_bits() as i64 + du) as u64);
                    let p = Vec3::new(min.x + relx, center.y, center.z);
                    let mirror = Vec3::new(center.x - (p.x - center.x), center.y, center.z);
                    pts.push(p);
                    if bounds.contains(mirror) {
                        pts.push(mirror);
                    }
                }
            }
            // same bins as the probe: keep points-per-bin × bins constant
            let per_bin = 2.0 * pts.len() as f64 / nfill as f64;
            let grid = CandidateGrid::build(bounds, &pts, per_bin);
            assert_eq!(grid.dims(), probe.dims(), "case {case}: bins drifted");
            // ids descending in index, so an index-order pop is never right
            let ids: Vec<u64> = (0..pts.len() as u64).rev().collect();

            let mut stream = grid.stream(&pts, &ids, center, u32::MAX, &mut scratch);
            let mut got = Vec::with_capacity(pts.len());
            while let Some((d2, i)) = stream.next(f64::MAX) {
                let q = pts[i as usize];
                got.push((d2, ids[i as usize], [q.x, q.y, q.z]));
            }
            let mut want = got.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got.len(), pts.len(), "case {case}");
            assert!(got == want, "case {case}: emission left canonical order");
        }
    }
}
