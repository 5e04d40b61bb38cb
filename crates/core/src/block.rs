//! Per-block tessellation: the per-cell kernel runs in parallel over sites
//! through the work-stealing chunk pool (the paper's intra-node OpenMP
//! analogue in Figure 3), with index-ordered collection so the assembled
//! block is bit-identical to a sequential run.
//!
//! Blocks participating in the adaptive ghost loop keep a [`BlockSession`]:
//! per-cell outcomes survive across rounds, and a resume pass recomputes
//! only the cells that are not *certified-final* — a certified cell's
//! security ball fits inside the previous ghost region, so particles
//! arriving from outside it provably cannot cut the cell (asserted in debug
//! builds).
//!
//! The same argument carries cells across service epochs ([`PrevBlock`]):
//! a cell the canonical pass certified is copied from the previous epoch's
//! published block when its site did not move, no moved particle lies in
//! its security ball, and the ball still certifies against this epoch's
//! region. Every other cell is recomputed.

use std::cell::RefCell;
use std::ops::Range;

use diy::hash::FxHashMap;
use diy::hist::LogHistogram;
use diy::trace::{monotonic_ns, trace_mode, TraceMode};
use geometry::{Aabb, Vec3};

use crate::cell::{canonical_fit, certified, compute_cell, CellContext, CellScratch, ComputedCell};
use crate::grid::{Bins, CandidateGrid};
use crate::model::{Cells, MeshBlock, NO_NEIGHBOR};
use crate::params::TessParams;
use crate::stats::TessStats;

/// Per-block certification summary for the adaptive ghost loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCertification {
    /// Ghost radius that would certify every currently-uncertified cell,
    /// assuming no farther particle cuts them: max over those cells of
    /// `2 × (site → farthest vertex) − distance(site, block wall)`. A lower
    /// bound — a grown region can expose new vertices — so the adaptive
    /// loop iterates on it rather than trusting it once.
    pub needed_ghost: f64,
    /// Uncertified cells the bound covers (dropped or kept-incomplete ones;
    /// culled cells are excluded — culling an underestimate-only volume is
    /// already final).
    pub uncertified: u64,
}

/// What a kept cell carries into the next service epoch beside its
/// published geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCarry {
    /// Security-ball diameter squared.
    pub sec2: f64,
    /// Certified by the canonical first pass: the cell's bits are then a
    /// function of the particles in its security ball alone.
    pub canonical: bool,
}

/// One block of the previous epoch, as an incremental pass reads it.
pub struct PrevBlock<'p> {
    /// The block as it was published.
    pub mesh: &'p MeshBlock,
    /// One entry per cell of `mesh`.
    pub carry: &'p [CellCarry],
    /// Every position that changed since.
    pub moved: &'p MovedSet,
}

/// The old and new positions of every particle an update moved, inserted
/// or removed, binned over the domain (wrapped into it on periodic axes,
/// clamped to it on the others) so that a security ball tests only the
/// bins it overlaps.
pub struct MovedSet {
    periodic: [bool; 3],
    /// Bins of the wrapped positions over the domain; members index
    /// `points`.
    bins: Bins,
    /// The positions as given, which the distance test reads.
    points: Vec<Vec3>,
}

impl MovedSet {
    /// Bin `points`, which must be finite.
    pub fn new(domain: Aabb, periodic: [bool; 3], points: &[Vec3]) -> MovedSet {
        assert!(
            points.iter().all(|p| p.is_finite()),
            "a moved position is not finite"
        );
        let (lo, ext) = (domain.min, domain.extent());
        let wrapped: Vec<Vec3> = points
            .iter()
            .map(|&p| {
                let mut w = p;
                for a in (0..3).filter(|&a| periodic[a] && ext[a] > 0.0) {
                    w[a] = lo[a] + (p[a] - lo[a]).rem_euclid(ext[a]);
                }
                w
            })
            .collect();
        MovedSet {
            periodic,
            bins: Bins::build(domain, &wrapped, 1.0),
            points: points.to_vec(),
        }
    }

    /// `true` unless every moved position lies provably outside the
    /// security ball (diameter² `sec2`) of `site`: distances are taken to
    /// the nearest periodic image on periodic axes, with the slack of the
    /// debug ghost check turned conservative.
    pub fn touches(&self, site: Vec3, sec2: f64) -> bool {
        if self.points.is_empty() {
            return false;
        }
        let reach2 = sec2 * (1.0 + 1e-9) + 1e-12;
        let reach = reach2.sqrt();
        let ext = self.bins.bounds().extent();
        let dims = self.bins.dims();
        // The bins the ball overlaps on axis `a`, as at most two ranges. One
        // bin of margin each side: a point's bin and its image's may round
        // apart at a bin wall.
        let span = |a: usize| -> [Range<usize>; 2] {
            let n = dims[a] as isize;
            let lo = self.bins.raw_coord(a, site[a] - reach).saturating_sub(1);
            let hi = self.bins.raw_coord(a, site[a] + reach).saturating_add(1);
            let (l, h) = if !self.periodic[a] {
                (lo.clamp(0, n - 1), hi.clamp(0, n - 1))
            } else if hi.saturating_sub(lo) >= n - 1 {
                (0, n - 1)
            } else {
                (lo.rem_euclid(n), hi.rem_euclid(n))
            };
            let (l, h) = (l as usize, h as usize);
            if l <= h {
                [l..h + 1, 0..0]
            } else {
                [l..dims[a], 0..h + 1]
            }
        };
        let (xs, ys, zs) = (span(0), span(1), span(2));
        let d2 = |p: Vec3| -> f64 {
            (0..3)
                .map(|a| {
                    let mut d = p[a] - site[a];
                    if self.periodic[a] && ext[a] > 0.0 {
                        d -= ext[a] * (d / ext[a]).round();
                    }
                    d * d
                })
                .sum()
        };
        zs.into_iter().flatten().any(|z| {
            ys.iter().cloned().flatten().any(|y| {
                xs.iter().any(|x| {
                    self.bins
                        .row(y, z, x.clone())
                        .iter()
                        .any(|&i| d2(self.points[i as usize]) <= reach2)
                })
            })
        })
    }
}

/// Exact equality of two positions, bit for bit.
pub(crate) fn same_bits(a: Vec3, b: Vec3) -> bool {
    (0..3).all(|k| a[k].to_bits() == b[k].to_bits())
}

/// What the block keeps of a computed cell; its faces, corners and
/// points lie in one of the session's [`KeptGeometry`] buffers.
#[derive(Clone, Copy)]
struct Kept {
    site_idx: u32,
    volume: f64,
    area: f64,
    complete: bool,
    /// Certified by the canonical first pass ([`CellCarry::canonical`]).
    canonical: bool,
    /// Security-ball diameter squared at compute time; debug builds check
    /// later ghost rounds against it, and the next epoch's carry keeps it.
    sec2: f64,
    /// Index of the buffer among the session's.
    geometry: u32,
    faces: Span,
    corners: Span,
    points: Span,
}

/// A range of one of [`KeptGeometry`]'s arrays.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The span of `v` from `start` to its end.
    fn since<T>(start: usize, v: &[T]) -> Span {
        Span {
            start: start as u32,
            len: (v.len() - start) as u32,
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The kept cells' geometry, flat: the polyhedron as the kernel left it,
/// before the block's vertex dedup.
#[derive(Default)]
struct KeptGeometry {
    /// Per face: the neighbour's global id and its loop length.
    faces: Vec<(u64, u32)>,
    /// The loops back to back, as indices into the cell's points.
    corners: Vec<u32>,
    /// Per cell, its polyhedron's vertices.
    points: Vec<Vec3>,
}

impl KeptGeometry {
    fn clear(&mut self) {
        self.faces.clear();
        self.corners.clear();
        self.points.clear();
    }

    /// A copy with no spare capacity.
    fn exact(&self) -> KeptGeometry {
        KeptGeometry {
            faces: self.faces.to_vec(),
            corners: self.corners.to_vec(),
            points: self.points.to_vec(),
        }
    }
}

enum Outcome {
    Kept(Kept),
    /// Cell `cell` of the previous epoch's block, unchanged.
    Reused {
        cell: u32,
        sec2: f64,
    },
    Incomplete,
    CulledEarly {
        certified: bool,
    },
    CulledLate {
        certified: bool,
    },
}

impl Outcome {
    /// Certified-final: recomputing against a larger ghost set provably
    /// cannot change this outcome. True exactly when the cell was complete
    /// when it was computed — complete cells are the global Voronoi cell,
    /// so both the kept geometry and any cull verdict are final. Incomplete
    /// cells (dropped, kept, or culled while incomplete) must be recomputed
    /// whenever the block sees more ghosts.
    fn certified(&self) -> bool {
        match self {
            Outcome::Kept(k) => k.complete,
            Outcome::Reused { .. } => true,
            Outcome::Incomplete => false,
            Outcome::CulledEarly { certified } | Outcome::CulledLate { certified } => *certified,
        }
    }

    /// Security-ball diameter squared of a certified kept cell.
    fn certified_ball(&self) -> Option<f64> {
        match self {
            Outcome::Kept(k) if k.complete => Some(k.sec2),
            Outcome::Reused { sec2, .. } => Some(*sec2),
            _ => None,
        }
    }
}

struct CellRecord {
    outcome: Outcome,
    /// Ghost radius this cell would need to certify (0 when certified).
    needed: f64,
}

/// A record to compute: not certified, so every pass recomputes it.
const TO_COMPUTE: CellRecord = CellRecord {
    outcome: Outcome::Incomplete,
    needed: 0.0,
};

/// Per-cell observability accumulated alongside a block's records:
/// distribution of candidate-test counts (always on — counting is free),
/// per-cell compute wall time and the block's slowest cells (only when
/// tracing is enabled, so the timing reads cannot perturb untraced runs).
#[derive(Debug, Default, Clone)]
pub struct CellObs {
    /// Candidates tested per computed cell.
    pub candidates: LogHistogram,
    /// Wall nanoseconds per computed cell (empty when tracing is off).
    pub compute_ns: LogHistogram,
    /// Top slow cells of this block: `(wall_ns, particle id)`, slowest
    /// first (empty when tracing is off).
    pub slow: Vec<(u64, u64)>,
}

/// Slow cells retained per block before the rank-level top-k merge.
const BLOCK_SLOW_CELLS: usize = 8;

impl CellObs {
    fn note(&mut self, tested: u64, ns: u64) {
        self.candidates.observe_u64(tested);
        if ns > 0 {
            self.compute_ns.observe_u64(ns);
        }
    }

    fn note_slow(&mut self, ns: u64, particle: u64) {
        if ns == 0 {
            return;
        }
        self.slow.push((ns, particle));
        self.slow.sort_by(|a, b| b.cmp(a));
        self.slow.truncate(BLOCK_SLOW_CELLS);
    }
}

/// One pass over a block: its mesh, what the kept cells carry into the
/// next epoch (one entry per cell of `block`), the block's counters and
/// its certification summary.
pub struct BlockPass {
    pub block: MeshBlock,
    pub carry: Vec<CellCarry>,
    pub stats: TessStats,
    pub cert: BlockCertification,
}

/// The previous epoch's block a session copies cells from.
struct Carried<'p> {
    prev: PrevBlock<'p>,
    /// Per vertex of `prev.mesh`: the first cell whose loops reference it —
    /// the cell whose raw loop point the vertex dedup stored.
    owner: Vec<u32>,
}

/// Resumable per-block tessellation state for the adaptive ghost loop.
pub struct BlockSession<'p> {
    gid: u64,
    bounds: Aabb,
    /// Ghosted region of the most recent pass.
    region: Aabb,
    records: Vec<CellRecord>,
    /// Geometry of the kept records, one buffer per pool chunk of any pass
    /// so far.
    kept: Vec<KeptGeometry>,
    carried: Option<Carried<'p>>,
    cells_computed: u64,
    cells_reused: u64,
    work: CellWork,
    obs: CellObs,
}

/// Work counters of cell computations, summed into the block's stats.
#[derive(Clone, Copy, Default)]
struct CellWork {
    tested: u64,
    skipped: u64,
    sorted: u64,
}

impl CellWork {
    fn add(&mut self, o: CellWork) {
        self.tested = self.tested.saturating_add(o.tested);
        self.skipped = self.skipped.saturating_add(o.skipped);
        self.sorted = self.sorted.saturating_add(o.sorted);
    }
}

thread_local! {
    /// Per-thread kernel scratch: pool workers and rank threads each reuse
    /// one across every cell they compute.
    static SCRATCH: RefCell<CellScratch> = RefCell::new(CellScratch::default());
    /// Per-thread buffer a pool chunk writes its kept geometry into before
    /// it is copied out at its exact size.
    static KEPT: RefCell<KeptGeometry> = RefCell::new(KeptGeometry::default());
}

/// Tessellate one block: `own` are the block's original particles, `ghosts`
/// the received halo particles (already in this block's frame).
pub fn tessellate_block(
    gid: u64,
    bounds: Aabb,
    own: &[(u64, Vec3)],
    ghosts: &[(u64, Vec3)],
    ghost_size: f64,
    params: &TessParams,
) -> (MeshBlock, TessStats) {
    let (pass, _) = tessellate_block_session(gid, bounds, own, ghosts, ghost_size, params, None);
    (pass.block, pass.stats)
}

/// First pass over a block, which also returns the [`BlockSession`] later
/// rounds can resume from. With `prev`, the cells the reuse rule admits
/// are copied from the previous epoch and only the rest are computed;
/// `own` must then be sorted by id, as the previous block's were.
pub fn tessellate_block_session<'p>(
    gid: u64,
    bounds: Aabb,
    own: &[(u64, Vec3)],
    ghosts: &[(u64, Vec3)],
    ghost_size: f64,
    params: &TessParams,
    prev: Option<PrevBlock<'p>>,
) -> (BlockPass, BlockSession<'p>) {
    let region = bounds.grown(ghost_size);
    let carried = prev.map(|prev| {
        let mut owner = vec![u32::MAX; prev.mesh.verts.len()];
        for (c, cell) in prev.mesh.cells.iter().enumerate() {
            for &v in cell.faces.corners() {
                if owner[v as usize] == u32::MAX {
                    owner[v as usize] = c as u32;
                }
            }
        }
        Carried { prev, owner }
    });
    let records = match &carried {
        Some(c) => carried_records(&c.prev, own, &bounds, &region, params),
        None => own.iter().map(|_| TO_COMPUTE).collect(),
    };
    let mut session = BlockSession {
        gid,
        bounds,
        region,
        records,
        kept: Vec::new(),
        carried,
        cells_computed: 0,
        cells_reused: 0,
        work: CellWork::default(),
        obs: CellObs::default(),
    };
    let pass = session.pass(own, ghosts, params);
    (pass, session)
}

/// The records of `own` an incremental pass copies from `prev`: a cell is
/// carried iff (a) the previous block kept a cell for its id at the
/// bit-identical position, (b) the canonical first pass certified it,
/// (c) no moved position lies in its security ball, and (d) the ball still
/// certifies against `region`. Its bits are then exactly what the kernel
/// would compute: the same candidates, clipped in the same order, from the
/// same start box. Every other record is left to compute.
fn carried_records(
    prev: &PrevBlock,
    own: &[(u64, Vec3)],
    bounds: &Aabb,
    region: &Aabb,
    params: &TessParams,
) -> Vec<CellRecord> {
    let mesh = prev.mesh;
    let clip_box = canonical_clip_box(bounds);
    let mut cells = mesh.cells.iter().enumerate().peekable();
    debug_assert!(
        own.windows(2).all(|w| w[0].0 < w[1].0),
        "own not sorted by id"
    );
    own.iter()
        .map(|&(id, site)| {
            while cells.next_if(|&(_, c)| mesh.site_id_of(c) < id).is_some() {}
            let Some((c, cell)) = cells.next_if(|&(_, c)| mesh.site_id_of(c) == id) else {
                return TO_COMPUTE;
            };
            let CellCarry { sec2, canonical } = prev.carry[c];
            let fit = canonical_fit(params.canon_extent, &clip_box, site);
            if same_bits(mesh.site_of(cell), site)
                && canonical
                && !prev.moved.touches(site, sec2)
                && certified(region, params.eps, site, sec2, fit)
            {
                CellRecord {
                    outcome: Outcome::Reused {
                        cell: c as u32,
                        sec2,
                    },
                    needed: 0.0,
                }
            } else {
                TO_COMPUTE
            }
        })
        .collect()
}

impl BlockSession<'_> {
    /// Incremental re-tessellation against a grown ghost set: recompute
    /// only the cells whose previous outcome was not certified-final.
    /// `ghosts` is the full cumulative ghost set, `new_ghosts` just the
    /// particles that arrived since the previous pass (used by the debug
    /// certification check). Output is bit-identical to a full recompute:
    /// a complete cell's bits are a function of the particle set alone, so
    /// the round that computed it cannot show in them.
    pub fn retessellate(
        &mut self,
        own: &[(u64, Vec3)],
        ghosts: &[(u64, Vec3)],
        new_ghosts: &[(u64, Vec3)],
        ghost_size: f64,
        params: &TessParams,
    ) -> BlockPass {
        assert_eq!(
            self.records.len(),
            own.len(),
            "session resumed with a different particle set"
        );
        self.debug_check_new_ghosts(own, new_ghosts);
        self.region = self.bounds.grown(ghost_size);
        self.pass(own, ghosts, params)
    }

    /// Compute every record that is not certified-final and assemble the
    /// block. A carried cell the vertex dedup cannot place exactly (see
    /// [`assemble`]) is computed too, and the block assembled again.
    fn pass(
        &mut self,
        own: &[(u64, Vec3)],
        ghosts: &[(u64, Vec3)],
        params: &TessParams,
    ) -> BlockPass {
        let (pts, ids) = flatten(own, ghosts);
        let mut indices: Vec<usize> = (0..self.records.len())
            .filter(|&i| !self.records[i].outcome.certified())
            .collect();
        self.cells_reused += (self.records.len() - indices.len()) as u64;
        loop {
            self.compute(own, &pts, &ids, &indices, params);
            match assemble(self, &pts, &ids, ghosts.len()) {
                Ok(pass) => return pass,
                Err(stale) => {
                    self.cells_reused -= stale.len() as u64;
                    indices = stale;
                }
            }
        }
    }

    /// Compute the records at `indices` and fold their counters in.
    fn compute(
        &mut self,
        own: &[(u64, Vec3)],
        pts: &[Vec3],
        ids: &[u64],
        indices: &[usize],
        params: &TessParams,
    ) {
        self.cells_computed += indices.len() as u64;
        let computed = compute_records(
            &self.bounds,
            pts,
            ids,
            indices,
            &self.region,
            params,
            &mut self.kept,
        );
        for (&i, (record, work, ns)) in indices.iter().zip(computed) {
            self.work.add(work);
            self.obs.note(work.tested, ns);
            self.obs.note_slow(ns, own[i].0);
            self.records[i] = record;
        }
    }

    /// Drain the per-cell observability accumulated since the last call
    /// (or session start). The driver merges it into rank metrics.
    pub fn take_obs(&mut self) -> CellObs {
        std::mem::take(&mut self.obs)
    }

    /// Block global id (for attributing slow cells at the rank level).
    pub fn gid(&self) -> u64 {
        self.gid
    }

    /// Debug-build proof of the incremental invariant: every particle that
    /// arrived after a cell certified must lie outside the cell's security
    /// ball (it came from outside the previous region, which contains the
    /// ball), so it cannot cut the cell.
    fn debug_check_new_ghosts(&self, own: &[(u64, Vec3)], new_ghosts: &[(u64, Vec3)]) {
        if cfg!(debug_assertions) {
            for (i, record) in self.records.iter().enumerate() {
                let Some(sec2) = record.outcome.certified_ball() else {
                    continue;
                };
                let site = own[i].1;
                for &(gidg, g) in new_ghosts {
                    debug_assert!(
                        g.dist2(site) >= sec2 * (1.0 - 1e-9) - 1e-12,
                        "block {}: new ghost {gidg} at {g} inside the security \
                         ball of certified cell {} (site {site})",
                        self.gid,
                        own[i].0,
                    );
                }
            }
        }
    }
}

fn flatten(own: &[(u64, Vec3)], ghosts: &[(u64, Vec3)]) -> (Vec<Vec3>, Vec<u64>) {
    // Own particles first so candidate index == own index for sites.
    let n = own.len() + ghosts.len();
    let mut pts: Vec<Vec3> = Vec::with_capacity(n);
    let mut ids: Vec<u64> = Vec::with_capacity(n);
    for &(id, p) in own.iter().chain(ghosts) {
        ids.push(id);
        pts.push(p);
    }
    (pts, ids)
}

/// Canonical start box for the kernel when the driver gives no domain
/// extent: a function of the block alone (largest ghost radius the
/// adaptive schedule can reach), never of the current round's radius — see
/// `cell::CellContext::clip_box`.
fn canonical_clip_box(bounds: &Aabb) -> Aabb {
    let e = bounds.extent();
    bounds.grown(e.x.min(e.y).min(e.z))
}

/// Compute the cells at `indices` in parallel; the result vector is in
/// `indices` order. Each pool chunk writes the geometry of the cells it
/// keeps into one buffer, pushed onto `kept` in chunk order, so the
/// records are the same at any pool width. Each element carries the
/// cell's work counters and wall nanoseconds (0 when tracing is off — the
/// clock is only read under a trace mode) alongside the record. Builds no
/// grid when there is nothing to compute.
fn compute_records(
    bounds: &Aabb,
    pts: &[Vec3],
    ids: &[u64],
    indices: &[usize],
    region: &Aabb,
    params: &TessParams,
    kept: &mut Vec<KeptGeometry>,
) -> Vec<(CellRecord, CellWork, u64)> {
    if indices.is_empty() {
        return Vec::new();
    }
    let grid = CandidateGrid::build(*region, pts, 2.0);
    let clip_box = canonical_clip_box(bounds);
    let ctx = CellContext {
        points: pts,
        ids,
        grid: &grid,
        region,
        clip_box: &clip_box,
        canon_extent: params.canon_extent,
        eps: params.eps,
    };
    let cull_diam2 = params.cull_diameter().map(|d| d * d);
    // Resolve once per pass: per-cell clock reads only happen under a
    // trace mode, keeping the untraced hot path free of syscalls.
    let timed = trace_mode() != TraceMode::Off;
    let chunk = rayon::pool::chunk_size(indices.len());
    let chunks = rayon::pool::run_ordered(indices.len().div_ceil(chunk), |k| {
        let mine = &indices[k * chunk..((k + 1) * chunk).min(indices.len())];
        KEPT.with(|g| {
            let mut geometry = g.borrow_mut();
            geometry.clear();
            let records: Vec<_> = mine
                .iter()
                .map(|&i| {
                    let t0 = if timed { monotonic_ns() } else { 0 };
                    let (record, work) =
                        compute_one(&ctx, bounds, params, cull_diam2, i, &mut geometry);
                    let ns = if timed {
                        monotonic_ns().saturating_sub(t0).max(1)
                    } else {
                        0
                    };
                    (record, work, ns)
                })
                .collect();
            (records, geometry.exact())
        })
    });
    let mut out = Vec::with_capacity(indices.len());
    for (records, geometry) in chunks {
        let at = kept.len() as u32;
        kept.push(geometry);
        out.extend(records.into_iter().map(|(mut record, work, ns)| {
            if let Outcome::Kept(k) = &mut record.outcome {
                k.geometry = at;
            }
            (record, work, ns)
        }));
    }
    out
}

fn compute_one(
    ctx: &CellContext,
    bounds: &Aabb,
    params: &TessParams,
    cull_diam2: Option<f64>,
    i: usize,
    kept: &mut KeptGeometry,
) -> (CellRecord, CellWork) {
    SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let cell = compute_cell(ctx, ctx.points[i], i as u32, &mut scratch);
        let record = record_of(ctx, bounds, params, cull_diam2, i, &cell, kept);
        let work = CellWork {
            tested: cell.candidates_tested as u64,
            skipped: cell.prefilter_skipped,
            sorted: cell.candidates_sorted,
        };
        // Everything the block keeps has been copied out of the polyhedron.
        scratch.recycle(cell.poly);
        (record, work)
    })
}

/// What the block keeps of cell `i`.
fn record_of(
    ctx: &CellContext,
    bounds: &Aabb,
    params: &TessParams,
    cull_diam2: Option<f64>,
    i: usize,
    cell: &ComputedCell,
    kept: &mut KeptGeometry,
) -> CellRecord {
    let site = ctx.points[i];
    let poly = &cell.poly;
    // Radius bound an uncertified cell needs: the security ball
    // (2× site→farthest-vertex) must fit inside the grown region,
    // so the halo must extend that far past the block wall.
    let needed = if cell.complete {
        0.0
    } else {
        (cell.sec2.sqrt() - bounds.interior_distance(site)).max(0.0)
    };
    if !cell.complete && !params.keep_incomplete {
        return CellRecord {
            outcome: Outcome::Incomplete,
            needed,
        };
    }
    // Early conservative cull (before any hull work). Valid even
    // for uncertified cells: unknown particles only shrink them.
    if let Some(d2) = cull_diam2 {
        if poly.max_pairwise_dist2() < d2 {
            return CellRecord {
                outcome: Outcome::CulledEarly {
                    certified: cell.complete,
                },
                needed: 0.0,
            };
        }
    }
    // Volume / area straight from the clipped polyhedron's ordered faces.
    let (volume, area) = (poly.volume(), poly.surface_area());
    // Exact cull after the volume is known.
    if let Some(minv) = params.min_volume {
        if volume < minv {
            return CellRecord {
                outcome: Outcome::CulledLate {
                    certified: cell.complete,
                },
                needed: 0.0,
            };
        }
    }
    let (face0, corner0, point0) = (kept.faces.len(), kept.corners.len(), kept.points.len());
    for f in &poly.faces {
        let nbr = f
            .neighbor
            .map(|cand| ctx.ids[cand as usize])
            .unwrap_or(NO_NEIGHBOR);
        let loop_ = poly.face_verts(f);
        kept.faces.push((nbr, loop_.len() as u32));
        kept.corners.extend_from_slice(loop_);
    }
    kept.points.extend_from_slice(&poly.verts);
    CellRecord {
        outcome: Outcome::Kept(Kept {
            site_idx: i as u32,
            volume,
            area,
            complete: cell.complete,
            canonical: cell.canonical,
            sec2: cell.sec2,
            // set when the chunk's buffer joins the session
            geometry: 0,
            faces: Span::since(face0, &kept.faces),
            corners: Span::since(corner0, &kept.corners),
            points: Span::since(point0, &kept.points),
        }),
        needed,
    }
}

/// Assemble the mesh block from the session's records (serial: vertex
/// dedup is a shared hash map). Runs over *all* records each pass, so a
/// resumed round rebuilds stats without double counting.
///
/// A carried cell's loops come from the previous block's deduplicated
/// vertices, in the same record order, so the dedup maps them where the
/// kernel's raw points would go — except when a carried cell is the first
/// to bring a vertex key and was not the cell whose raw point the previous
/// block stored for it. Then the exact point is unknown: `Err` lists those
/// records, which must be computed.
fn assemble(
    session: &BlockSession,
    pts: &[Vec3],
    ids: &[u64],
    n_ghosts: usize,
) -> Result<BlockPass, Vec<usize>> {
    let mut stats = TessStats {
        sites: session.records.len() as u64,
        ghosts_received: n_ghosts as u64,
        candidates_tested: session.work.tested,
        prefilter_skipped: session.work.skipped,
        candidates_sorted: session.work.sorted,
        cells_computed: session.cells_computed,
        cells_reused: session.cells_reused,
        ..Default::default()
    };
    let prev = session.carried.as_ref();
    // Size every column exactly, and the vertex map for the distinct
    // vertices: an interior Voronoi vertex is a corner of three faces in
    // each of four cells; the benchmark's blocks list 9–11 face corners per
    // distinct vertex (5–9 on small blocks, whose wall vertices are shared
    // less). Sized for 8, the map rarely grows.
    let (mut n_cells, mut n_faces, mut n_corners) = (0, 0, 0);
    for r in &session.records {
        let (faces, corners) = match &r.outcome {
            Outcome::Kept(k) => (k.faces.len as usize, k.corners.len as usize),
            Outcome::Reused { cell, .. } => {
                let c = prev.map(|c| c.prev.mesh.cells.cell(*cell as usize));
                c.map_or((0, 0), |c| (c.faces.len(), c.faces.corners().len()))
            }
            _ => continue,
        };
        n_cells += 1;
        n_faces += faces;
        n_corners += corners;
    }
    let mut block = MeshBlock {
        gid: session.gid,
        bounds: session.bounds,
        particles: Vec::with_capacity(n_cells),
        site_ids: Vec::with_capacity(n_cells),
        verts: Vec::with_capacity(n_corners / 8),
        cells: Cells::with_capacity(n_cells, n_faces, n_corners),
    };
    let mut carry = Vec::with_capacity(n_cells);
    let mut stale = Vec::new();
    let mut vert_index: FxHashMap<(i64, i64, i64), u32> =
        FxHashMap::with_capacity_and_hasher(n_corners / 8, Default::default());
    // Quantization for vertex dedup within a block: 1e-6 domain units.
    let quant = |p: Vec3| {
        (
            (p.x * 1e6).round() as i64,
            (p.y * 1e6).round() as i64,
            (p.z * 1e6).round() as i64,
        )
    };
    // A point's block vertex, the first time its cell (or, for carried
    // cells, the previous block) brings it; `u32::MAX` until then. Every
    // later corner on it would find the same key in the map.
    let mut local: Vec<u32> = Vec::new();
    let mut from_prev = vec![u32::MAX; prev.map_or(0, |c| c.prev.mesh.verts.len())];

    let mut cert = BlockCertification::default();
    for (i, record) in session.records.iter().enumerate() {
        match &record.outcome {
            Outcome::Incomplete => {
                stats.incomplete += 1;
                cert.uncertified += 1;
                cert.needed_ghost = cert.needed_ghost.max(record.needed);
            }
            Outcome::CulledEarly { .. } => stats.culled_early += 1,
            Outcome::CulledLate { .. } => stats.culled_late += 1,
            Outcome::Kept(kept) => {
                let site_idx = block.particles.len() as u32;
                block.particles.push(pts[kept.site_idx as usize]);
                block.site_ids.push(ids[kept.site_idx as usize]);
                if !kept.complete {
                    stats.incomplete_kept += 1;
                    cert.uncertified += 1;
                    cert.needed_ghost = cert.needed_ghost.max(record.needed);
                }
                let geometry = &session.kept[kept.geometry as usize];
                let points = &geometry.points[kept.points.range()];
                local.clear();
                local.resize(points.len(), u32::MAX);
                block
                    .cells
                    .push(site_idx, kept.volume, kept.area, kept.complete);
                let mut corners = geometry.corners[kept.corners.range()].iter();
                for &(neighbor, len) in &geometry.faces[kept.faces.range()] {
                    let loop_ = corners.by_ref().take(len as usize).map(|&l| {
                        let v = &mut local[l as usize];
                        if *v == u32::MAX {
                            let p = points[l as usize];
                            *v = *vert_index.entry(quant(p)).or_insert_with(|| {
                                block.verts.push(p);
                                (block.verts.len() - 1) as u32
                            });
                        }
                        *v
                    });
                    block.cells.push_face(neighbor, loop_);
                }
                carry.push(CellCarry {
                    sec2: kept.sec2,
                    canonical: kept.canonical,
                });
                stats.cells += 1;
            }
            Outcome::Reused { cell, sec2 } => {
                let carried = prev.expect("reused cells come from a previous block");
                let old_block = carried.prev.mesh;
                let old = old_block.cells.cell(*cell as usize);
                let site_idx = block.particles.len() as u32;
                block.particles.push(pts[i]);
                block.site_ids.push(ids[i]);
                let mut exact = true;
                block.cells.push_mapped(old, site_idx, |v| {
                    let slot = &mut from_prev[v as usize];
                    if *slot == u32::MAX {
                        let p = old_block.verts[v as usize];
                        *slot = *vert_index.entry(quant(p)).or_insert_with(|| {
                            exact &= carried.owner[v as usize] == *cell;
                            block.verts.push(p);
                            (block.verts.len() - 1) as u32
                        });
                    }
                    *slot
                });
                if !exact {
                    stale.push(i);
                }
                carry.push(CellCarry {
                    sec2: *sec2,
                    canonical: true,
                });
                stats.cells += 1;
            }
        }
    }
    if !stale.is_empty() {
        return Err(stale);
    }
    stats.verts = block.verts.len() as u64;
    stats.faces = block.num_faces() as u64;
    Ok(BlockPass {
        block,
        carry,
        stats,
        cert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice_particles(n: usize, spacing: f64) -> Vec<(u64, Vec3)> {
        (0..n * n * n)
            .map(|idx| {
                let i = idx % n;
                let j = (idx / n) % n;
                let k = idx / (n * n);
                (
                    idx as u64,
                    Vec3::new(
                        (i as f64 + 0.5) * spacing,
                        (j as f64 + 0.5) * spacing,
                        (k as f64 + 0.5) * spacing,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn interior_cells_of_a_lattice_block() {
        let n = 6;
        let own = lattice_particles(n, 1.0);
        let bounds = Aabb::cube(n as f64);
        let params = TessParams::default().with_ghost(2.0);
        let (block, stats) = tessellate_block(0, bounds, &own, &[], 2.0, &params);
        // no ghosts: only cells ≥ 2 cells from the wall can certify
        assert!(stats.cells > 0);
        assert_eq!(stats.cells + stats.incomplete, (n * n * n) as u64);
        assert_eq!(stats.cells_computed, (n * n * n) as u64);
        assert_eq!(stats.cells_reused, 0);
        assert!(stats.candidates_tested > 0);
        for c in &block.cells {
            assert!((c.volume - 1.0).abs() < 1e-9);
            assert!((c.area - 6.0).abs() < 1e-9);
            assert!(c.complete);
            assert_eq!(c.faces.len(), 6);
            for f in c.faces {
                assert_ne!(f.neighbor, NO_NEIGHBOR);
                assert_eq!(f.verts.len(), 4);
            }
        }
    }

    #[test]
    fn certification_reports_the_radius_incomplete_cells_need() {
        let n = 6;
        let own = lattice_particles(n, 1.0);
        let bounds = Aabb::cube(n as f64);
        let params = TessParams::default().with_ghost(0.5);
        let (pass, _) = tessellate_block_session(0, bounds, &own, &[], 0.5, &params, None);
        let (stats, cert) = (pass.stats, pass.cert);
        assert!(stats.incomplete > 0);
        assert_eq!(cert.uncertified, stats.incomplete);
        // a boundary cell's security ball reaches past the current halo, so
        // the requested radius must strictly exceed it
        assert!(cert.needed_ghost > 0.5, "needed {}", cert.needed_ghost);

        // kept-incomplete cells count as uncertified too
        let keep = TessParams {
            keep_incomplete: true,
            ..params
        };
        let (pass, _) = tessellate_block_session(0, bounds, &own, &[], 0.5, &keep, None);
        let (s2, c2) = (pass.stats, pass.cert);
        assert_eq!(s2.incomplete, 0);
        assert_eq!(c2.uncertified, s2.incomplete_kept);
        assert!((c2.needed_ghost - cert.needed_ghost).abs() < 1e-12);
    }

    #[test]
    fn vertex_dedup_shares_vertices_between_cells() {
        let n = 4;
        let own = lattice_particles(n, 1.0);
        let bounds = Aabb::cube(n as f64);
        let params = TessParams {
            keep_incomplete: true,
            ..TessParams::default().with_ghost(1.5)
        };
        let (block, stats) = tessellate_block(0, bounds, &own, &[], 1.5, &params);
        assert_eq!(stats.cells, (n * n * n) as u64);
        // interior lattice vertices are shared by up to 8 cells; the dedup
        // must make verts far fewer than 8 per cell × cells
        let naive: usize = block
            .cells
            .iter()
            .map(|c| c.faces.iter().map(|f| f.verts.len()).sum::<usize>())
            .sum();
        assert!(
            (block.verts.len() as f64) < naive as f64 / 2.5,
            "verts {} vs naive {naive}",
            block.verts.len()
        );
    }

    #[test]
    fn volume_threshold_culls_small_cells() {
        let n = 5;
        let own = lattice_particles(n, 1.0);
        let bounds = Aabb::cube(n as f64);
        // Complete cells are the interior 3³ unit cubes (no ghosts, so the
        // outer layer touches the region walls). Threshold 2 kills them all.
        let params = TessParams::default().with_ghost(2.0).with_min_volume(2.0);
        let (block, stats) = tessellate_block(0, bounds, &own, &[], 2.0, &params);
        assert_eq!(block.cells.len(), 0);
        // diameter sqrt(3) ≈ 1.73 exceeds the cull diameter for V=2
        // (≈1.56), so unit cells pass the conservative early test and die
        // only after exact volume computation
        assert_eq!(stats.culled_early, 0);
        assert_eq!(stats.culled_late, 27);
        assert_eq!(stats.incomplete, (n * n * n - 27) as u64);

        // threshold of 0.5 keeps every complete unit cell
        let params = TessParams::default().with_ghost(2.0).with_min_volume(0.5);
        let (block, _) = tessellate_block(0, bounds, &own, &[], 2.0, &params);
        assert_eq!(block.cells.len(), 27);
    }

    #[test]
    fn early_cull_triggers_for_tiny_cells() {
        // Dense cluster of particles → tiny cells; threshold far above
        // their diameter bound culls them before hull work.
        let mut own: Vec<(u64, Vec3)> = Vec::new();
        let mut id = 0u64;
        for i in 0..6 {
            for j in 0..6 {
                for k in 0..6 {
                    own.push((
                        id,
                        Vec3::new(
                            2.0 + i as f64 * 0.05,
                            2.0 + j as f64 * 0.05,
                            2.0 + k as f64 * 0.05,
                        ),
                    ));
                    id += 1;
                }
            }
        }
        let bounds = Aabb::cube(4.0);
        let params = TessParams::default().with_ghost(0.5).with_min_volume(10.0);
        let (block, stats) = tessellate_block(0, bounds, &own, &[], 0.5, &params);
        assert_eq!(block.cells.len(), 0);
        // interior cluster cells are tiny (0.05³-scale): their diameter is
        // far below the V=10 cull diameter, so the conservative early test
        // removes them without any hull work
        assert!(stats.culled_early > 0, "early {}", stats.culled_early);
        assert_eq!(stats.culled_late, 0);
    }

    #[test]
    fn hull_mode_matches_clip_mode() {
        let n = 5;
        let own = lattice_particles(n, 1.0);
        let bounds = Aabb::cube(n as f64);
        let params = TessParams::default().with_ghost(2.0);
        let (block, _) = tessellate_block(0, bounds, &own, &[], 2.0, &params);
        assert!(!block.cells.is_empty());
        // The paper's path (§III-C, Qhull): the convex hull of the cell's
        // vertices orders them into faces and yields volume and area.
        for c in &block.cells {
            let mut idx: Vec<u32> = c.faces.corners().to_vec();
            idx.sort_unstable();
            idx.dedup();
            let verts: Vec<Vec3> = idx.iter().map(|&i| block.verts[i as usize]).collect();
            let hull = geometry::convex_hull(&verts, params.eps).expect("cell hull");
            assert!(
                (c.volume - hull.volume()).abs() < 1e-9,
                "{} vs {}",
                c.volume,
                hull.volume()
            );
            assert!((c.area - hull.surface_area()).abs() < 1e-9);
        }
    }

    #[test]
    fn ghosts_complete_the_boundary_cells() {
        // Block covering half a lattice; ghosts supply the other half's
        // boundary layer → every cell becomes complete and unit volume.
        let n = 4;
        let all = lattice_particles(n, 1.0); // cube(4)
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 4.0, 4.0));
        let own: Vec<(u64, Vec3)> = all
            .iter()
            .copied()
            .filter(|(_, p)| bounds.contains(*p))
            .collect();
        let ghost = 1.6;
        let region = bounds.grown(ghost);
        let ghosts: Vec<(u64, Vec3)> = all
            .iter()
            .copied()
            .filter(|(_, p)| !bounds.contains(*p) && region.contains_closed(*p))
            .collect();
        let params = TessParams::default().with_ghost(ghost);
        let (block, stats) = tessellate_block(0, bounds, &own, &ghosts, ghost, &params);
        // cells at the global domain edge still lack outer neighbors, but
        // cells adjacent to the block seam are now complete
        assert!(stats.cells > 0);
        for c in &block.cells {
            assert!((c.volume - 1.0).abs() < 1e-9);
        }
        // sites of kept cells must all be original particles
        for (i, &id) in block.site_ids.iter().enumerate() {
            let p = block.particles[i];
            assert!(bounds.contains(p), "site {id} at {p} not original");
        }
    }

    /// Per-cell fingerprint: (site id, volume bits, area bits, neighbors, face vertex bits).
    type CellBits = (u64, u64, u64, Vec<u64>, Vec<Vec<(u64, u64, u64)>>);

    /// Bit-fingerprint of a mesh block for exact comparisons.
    fn block_bits(b: &MeshBlock) -> Vec<CellBits> {
        b.cells
            .iter()
            .map(|c| {
                (
                    b.site_ids[c.site_idx as usize],
                    c.volume.to_bits(),
                    c.area.to_bits(),
                    c.faces.iter().map(|f| f.neighbor).collect(),
                    c.faces
                        .iter()
                        .map(|f| {
                            f.verts
                                .iter()
                                .map(|&v| {
                                    let p = b.verts[v as usize];
                                    (p.x.to_bits(), p.y.to_bits(), p.z.to_bits())
                                })
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn incremental_resume_matches_full_recompute_bit_for_bit() {
        let n = 6;
        let all = lattice_particles(2 * n, 1.0); // cube(12)
        let bounds = Aabb::cube(n as f64); // corner block of the lattice
        let own: Vec<(u64, Vec3)> = all
            .iter()
            .copied()
            .filter(|(_, p)| bounds.contains(*p))
            .collect();
        let ghosts_within = |r: f64| -> Vec<(u64, Vec3)> {
            let region = bounds.grown(r);
            all.iter()
                .copied()
                .filter(|(_, p)| !bounds.contains(*p) && region.contains_closed(*p))
                .collect()
        };

        let (r0, r1) = (1.2, 2.6);
        let g0 = ghosts_within(r0);
        let g1 = ghosts_within(r1);
        let new_ghosts: Vec<(u64, Vec3)> = g1
            .iter()
            .copied()
            .filter(|(id, _)| !g0.iter().any(|(id0, _)| id0 == id))
            .collect();
        let params = TessParams::default().with_ghost(r1);

        // Round 0 at the small radius, then resume at the large one.
        let (first, mut session) =
            tessellate_block_session(7, bounds, &own, &g0, r0, &params, None);
        let (s0, cert0) = (first.stats, first.cert);
        assert!(cert0.uncertified > 0, "first round must leave work");
        let BlockPass {
            block: inc_block,
            stats: inc_stats,
            cert: inc_cert,
            ..
        } = session.retessellate(&own, &g1, &new_ghosts, r1, &params);

        // One-shot full pass at the large radius.
        let (full, _) = tessellate_block_session(7, bounds, &own, &g1, r1, &params, None);
        let (full_block, full_stats, full_cert) = (full.block, full.stats, full.cert);

        assert_eq!(block_bits(&inc_block), block_bits(&full_block));
        assert_eq!(inc_cert.uncertified, full_cert.uncertified);
        assert_eq!(inc_stats.cells, full_stats.cells);
        assert_eq!(inc_stats.incomplete, full_stats.incomplete);

        // The resume only recomputed the uncertified cells.
        let n_own = own.len() as u64;
        assert_eq!(s0.cells_computed, n_own);
        assert_eq!(
            inc_stats.cells_computed,
            n_own + cert0.uncertified,
            "resume must recompute exactly the uncertified cells"
        );
        assert_eq!(inc_stats.cells_reused, n_own - cert0.uncertified);
        assert!(inc_stats.cells_reused > 0);
        // ... and therefore tested fewer candidates than two full passes.
        assert!(inc_stats.candidates_tested < 2 * full_stats.candidates_tested);
    }

    #[test]
    fn carried_cells_match_a_full_pass_when_the_radius_shrinks() {
        use diy::codec::Encode;
        // A pass at a large radius certifies every cell; the next, with no
        // particle moved, runs at a radius too small for the wall layer.
        // Those cells fail the certification re-check and drop; the layer
        // behind them is carried, but it shares vertices the dropped cells
        // had stored first, so the dedup cannot place them exactly and they
        // are computed as well. The result must equal a full pass.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let n = 6;
        // jittered, so that cells sharing a vertex compute it to different
        // bits and the dedup's choice of point shows in the block
        let all: Vec<(u64, Vec3)> = lattice_particles(2 * n, 1.0)
            .into_iter()
            .map(|(id, p)| {
                let j = Vec3::new(
                    rng.gen_range(-0.1..0.1),
                    rng.gen_range(-0.1..0.1),
                    rng.gen_range(-0.1..0.1),
                );
                (id, p + j)
            })
            .collect();
        // the central block of the lattice: a full halo on every side
        let bounds = Aabb::new(Vec3::splat(3.0), Vec3::splat(9.0));
        let own: Vec<(u64, Vec3)> = all
            .iter()
            .copied()
            .filter(|(_, p)| bounds.contains(*p))
            .collect();
        let ghosts_within = |r: f64| -> Vec<(u64, Vec3)> {
            let region = bounds.grown(r);
            all.iter()
                .copied()
                .filter(|(_, p)| !bounds.contains(*p) && region.contains_closed(*p))
                .collect()
        };
        let (r1, r0) = (2.6, 1.2);
        let params = TessParams::default();
        let (first, _) =
            tessellate_block_session(3, bounds, &own, &ghosts_within(r1), r1, &params, None);
        assert_eq!(first.stats.cells, own.len() as u64, "all certified");

        let moved = MovedSet::new(Aabb::cube(2.0 * n as f64), [false; 3], &[]);
        let prev = PrevBlock {
            mesh: &first.block,
            carry: &first.carry,
            moved: &moved,
        };
        let region = bounds.grown(r0);
        let admitted = carried_records(&prev, &own, &bounds, &region, &params)
            .iter()
            .filter(|r| r.outcome.certified())
            .count() as u64;
        assert!(admitted > 0 && admitted < own.len() as u64);
        let g0 = ghosts_within(r0);
        let (inc, _) = tessellate_block_session(3, bounds, &own, &g0, r0, &params, Some(prev));
        let (full, _) = tessellate_block_session(3, bounds, &own, &g0, r0, &params, None);
        assert!(
            inc.block.to_bytes() == full.block.to_bytes(),
            "carried block differs from a full pass"
        );
        assert_eq!(inc.carry, full.carry);
        assert_eq!(
            inc.stats.cells_reused + inc.stats.cells_computed,
            own.len() as u64
        );
        assert!(
            inc.stats.cells_reused > 0 && inc.stats.cells_reused < admitted,
            "reused {} of {admitted} admitted",
            inc.stats.cells_reused
        );
    }

    #[test]
    fn moved_set_finds_every_point_in_a_ball_by_minimum_image() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let domain = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(7.0, 4.0, 5.0));
        let periodic = [true, false, true];
        let ext = domain.extent();
        let mut point = |spill: f64| {
            Vec3::new(
                rng.gen_range(domain.min.x - spill..domain.max.x + spill),
                rng.gen_range(domain.min.y - spill..domain.max.y + spill),
                rng.gen_range(domain.min.z - spill..domain.max.z + spill),
            )
        };
        let mut points: Vec<Vec3> = (0..40).map(|_| point(0.5)).collect();
        let mut sites: Vec<Vec3> = (0..400).map(|_| point(1.0)).collect();
        // Seams of the periodic x and z axes: a point exactly at
        // `domain.max`, and points several bins past a face. Five sites,
        // one per ball size, see each through the opposite face, just
        // inside it, or beside its in-domain image.
        let seams = [
            (
                Vec3::new(domain.max.x, 1.0, 3.0),
                Vec3::new(domain.min.x + 1e-12, 1.0, 3.0),
            ),
            (
                Vec3::new(domain.max.x + ext.x + 0.05, 3.0, 4.0),
                Vec3::new(domain.max.x - 1e-12, 3.0, 4.0),
            ),
            (
                Vec3::new(2.0, 2.0, domain.min.z - 2.0 * ext.z - 0.05),
                Vec3::new(2.0, 2.0, domain.max.z - 1e-12),
            ),
            (
                Vec3::new(domain.max.x + 2.5, 1.5, 3.5),
                Vec3::new(domain.min.x + 2.55, 1.5, 3.5),
            ),
        ];
        for (p, inside) in seams {
            points.push(p);
            let step = Vec3::new(0.0, 0.02, 0.0);
            sites.extend((0..5).map(|j| inside + step * j as f64));
        }
        let set = MovedSet::new(domain, periodic, &points);
        let (mut hits, mut misses) = (0, 0);
        for (k, &site) in sites.iter().enumerate() {
            let sec2 = [0.01, 0.5, 2.0, 9.0, 100.0][k % 5];
            let brute = points.iter().any(|&p| {
                let d2: f64 = (0..3)
                    .map(|a| {
                        let mut d = p[a] - site[a];
                        if periodic[a] {
                            d -= ext[a] * (d / ext[a]).round();
                        }
                        d * d
                    })
                    .sum();
                d2 <= sec2
            });
            if brute {
                hits += 1;
                assert!(set.touches(site, sec2), "site {site} sec2 {sec2}");
            } else {
                misses += 1;
            }
        }
        assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
        assert!(!MovedSet::new(domain, periodic, &[]).touches(sites[0], 1e9));
    }
}
