//! Resident tessellation service: the mesh lives beside the data and is
//! interrogated, not recomputed per question.
//!
//! [`MeshService`] owns a persistent rank machine ([`diy::ResidentRuntime`]),
//! the particle SoA store, and the last certified mesh. Queries — cell-by-
//! point lookup, bounding-box cell extraction, per-region volume/density
//! summaries — flow through an async request queue drained by a small pool
//! of worker threads that batch and coalesce concurrent requests.
//!
//! ## Updates
//!
//! An update (a particle delta or a whole new snapshot) is reduced to the
//! set of positions that changed — old and new position of each moved
//! particle, the new one of an inserted id, the old one of a removed id;
//! an upsert with identical bits moves nothing. The resident ranks then
//! tessellate the next epoch incrementally: a cell the canonical pass
//! certified is copied from the published snapshot when its site did not
//! move, no changed position lies in its security ball, and the ball still
//! certifies against this epoch's ghost region; every other cell runs the
//! kernel. A copied cell's bits are exactly what the kernel would compute,
//! so every epoch encodes byte-identical to a from-scratch tessellation of
//! its particle set. A non-finite changed position turns the carry off for
//! that epoch. Besides the published snapshot, which readers hold anyway,
//! the carry keeps one security diameter and one flag per cell.
//!
//! ## Consistency model
//!
//! Published meshes are immutable `Arc<MeshSnapshot>`s behind an rw-lock
//! cell. A worker pins **one** snapshot per batch (an `Arc` clone — the
//! epoch pin), answers the whole batch against it, and stamps every
//! response with that snapshot's epoch. An in-flight update reads the
//! published snapshot, builds the next one privately and swaps the `Arc`
//! only when fully certified, so a query observes either the pre-update or
//! the post-update mesh in its entirety — never a mixture — and an epoch's
//! mesh never depends on the update history that led to it. There is no
//! read barrier during updates: queries keep draining against the previous
//! certified epoch.
//!
//! ## Batching and coalescing
//!
//! A worker drains up to `batch_max` queued requests at once. Point
//! lookups in a batch are grouped by owning block and answered in
//! canonical (coordinate-bit) order; bit-equal duplicate queries within a
//! batch are coalesced: computed once, answered to every requester.
//!
//! ## The site grids: point, box and region answers
//!
//! The snapshot's one index is a [`crate::grid`] `Bins` per block over its
//! cell sites' tight bounding box, about four sites per bin. Assembly
//! stores cell `i`'s site at `particles[i]` (`build` asserts it), so the
//! grid copies no site: 4 B per cell plus the bin offsets. A point lookup
//! visits the query's own block first, then the others, and per periodic
//! image skips a block whose site box is farther than the best hit or
//! walks its bins ring by ring (see *Exactness*). A box or region query
//! skips every block whose site box it misses and walks, per axis, only
//! the bins from `bin(q.min)` to `bin(q.max)`, one row slice at a time.
//!
//! Box and region membership is [`Aabb::contains`] on the stored site,
//! exactly. Binning, `floor((x − lo) · inv_h)` clamped to the grid, is
//! monotone in `x`. So a site in a bin after `bin(q.min)` on an axis is
//! `≥ q.min` there, one in a bin before `bin(q.max)` is `< q.max`, and a
//! face of `q` outside the site box holds for every site. Members of bins
//! on a face that cuts the sites take the test; all others are accepted
//! untested, with no slack. A query that fails `min < max` on some axis (a
//! NaN corner, an inverted or zero-extent box) matches nothing. Matches
//! are set in a per-block bitmap and read back in cell order, blocks in
//! gid order: the canonical order both answers are defined in. Box rows
//! are then sorted by site id, and region sums accumulate in that order,
//! so the answers equal a full scan bit for bit.
//!
//! ## Telemetry
//!
//! Each service owns a [`diy::telemetry::Registry`]
//! ([`MeshService::telemetry`]) and records every event once, into its
//! `service.*` series: [`MeshService::stats`], the `tess-serve` table and
//! the Prometheus scrape are all views of that one record. Two services in
//! one process never share a series.
//!
//! ## Exactness
//!
//! Point lookup is the exact argmin-distance seed. Periodic images are
//! taken at query time: for a query wrapped into the domain and a site in
//! it, the minimum-image offset is in `{-1, 0, 1}` on each periodic axis,
//! so the lookup searches every block's sites shifted by `k·ext` for all
//! `k ∈ {-1, 0, 1}³` (0 on open axes). It skips a site only on a lower
//! bound, pulled in by a rounding slack, strictly above the best distance,
//! so no nearer or tied site is missed. Each distance is
//! `(site + k·ext).dist2(q)`, the brute-force definition's expression, so
//! the bits agree, and exact `f64` ties go to the **smallest site id**.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};

use diy::comm::ResidentRuntime;
use diy::decomposition::{Assignment, BalanceStats, DecompScheme, Decomposition};
use diy::telemetry::{self, Registry};
pub use diy::trace::SERVICE_TRACE_PID;
use diy::trace::{monotonic_ns, trace_mode, Event, EventKind, RankTrace, TraceMode, TraceState};
use geometry::{Aabb, Vec3};

use crate::block::{same_bits, CellCarry, MovedSet};
use crate::driver::{tessellate_incremental, PrevEpoch};
use crate::grid::{rounding_slack, Bins, StreamScratch};
use crate::model::MeshBlock;
use crate::params::TessParams;
use crate::stats::TessStats;

/// One query against the resident mesh.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Which cell contains this point? Answered with the exact
    /// argmin-distance seed (ties toward the smallest site id).
    Point(Vec3),
    /// Every cell whose site lies in this half-open box, sorted by site id.
    BoxCells(Aabb),
    /// Aggregate volume/density over cells whose sites lie in this box.
    Region(Aabb),
}

/// The cell answering a point lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointHit {
    pub site_id: u64,
    /// Owning block of the cell.
    pub gid: u64,
    /// Exact squared distance from the query to the winning site (its
    /// nearest periodic image).
    pub dist2: f64,
    pub volume: f64,
    pub area: f64,
    pub faces: u32,
    pub complete: bool,
}

/// One cell row of a box extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    pub site_id: u64,
    pub gid: u64,
    pub volume: f64,
    pub area: f64,
    pub faces: u32,
    pub complete: bool,
}

/// Aggregate over a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSummary {
    /// Cells whose site lies in the region.
    pub cells: u64,
    /// Sum of their cell volumes (canonical block/cell iteration order).
    pub volume: f64,
    /// Sum of their surface areas.
    pub area: f64,
    /// Seed number density: `cells / box volume`.
    pub density: f64,
}

/// Answer payload, one variant per [`Query`] kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `None` when the mesh is empty.
    Point(Option<PointHit>),
    BoxCells(Vec<CellSummary>),
    Region(RegionSummary),
}

/// A completed response. `epoch` identifies the exact published snapshot
/// the answer was computed against.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub id: u64,
    pub epoch: u64,
    pub answer: Answer,
    pub latency_ns: u64,
}

/// A mesh update: apply a delta to the particle store, or replace it.
#[derive(Debug, Clone)]
pub enum Update {
    Delta {
        upserts: Vec<(u64, Vec3)>,
        removes: Vec<u64>,
    },
    Snapshot(Vec<(u64, Vec3)>),
}

/// What an update published.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    pub epoch: u64,
    pub particles: u64,
    pub cells: u64,
    pub stats: TessStats,
    pub tess_wall_s: f64,
}

/// Service sizing knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Resident ranks for the update path.
    pub nranks: usize,
    /// Blocks in the decomposition.
    pub nblocks: usize,
    /// Query worker threads.
    pub workers: usize,
    /// Max requests drained per batch.
    pub batch_max: usize,
    /// Tessellation parameters for the update path.
    pub params: TessParams,
    /// Decomposition scheme for the resident blocks. K-d builds its cuts
    /// from the spawn-time particle snapshot and pairs with a weighted
    /// (particle-count) block→rank assignment.
    pub decomp: DecompScheme,
}

impl ServiceConfig {
    pub fn new(nranks: usize, nblocks: usize) -> ServiceConfig {
        ServiceConfig {
            nranks,
            nblocks,
            workers: 2,
            batch_max: 64,
            params: TessParams::default(),
            decomp: DecompScheme::from_env(),
        }
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    pub fn with_params(mut self, params: TessParams) -> Self {
        self.params = params;
        self
    }

    pub fn with_decomp(mut self, decomp: DecompScheme) -> Self {
        self.decomp = decomp;
        self
    }
}

/// Sites per bin the per-block site grid aims at.
const SITES_PER_BIN: f64 = 4.0;

/// Bin `block`'s cell sites over their tight bounding box (NaN coordinates
/// skipped, so it holds every binned site) for point, box and region
/// answers.
fn site_bins(block: &MeshBlock) -> Bins {
    // Assembly pushes a cell's site as it pushes the cell, so cell `i`'s
    // site is `particles[i]`, and queries read it there directly. A block
    // built otherwise would get wrong answers.
    assert!(
        block
            .cells
            .iter()
            .enumerate()
            .all(|(i, c)| c.site_idx as usize == i),
        "block {}: cell i must store its site at particles[i]",
        block.gid
    );
    let sites = &block.particles[..block.cells.len()];
    // `f64::min`/`max` skip NaN coordinates; an empty block keeps an
    // inverted box that no query overlaps.
    let (mut min, mut max) = (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY));
    for &p in sites {
        min = min.min(p);
        max = max.max(p);
    }
    Bins::build(Aabb { min, max }, sites, SITES_PER_BIN)
}

/// Set in `hits` (resized to one bit per cell of `block`) every cell whose
/// site lies in `q`, which must have `min < max` on every axis. `false`,
/// with `hits` untouched, when no site can lie in `q`.
fn mark(bins: &Bins, block: &MeshBlock, q: &Aabb, hits: &mut Vec<u64>) -> bool {
    let sites = bins.bounds();
    if (0..3).any(|a| q.max[a] <= sites.min[a] || q.min[a] > sites.max[a]) {
        return false;
    }
    hits.clear();
    hits.resize(block.cells.len().div_ceil(64), 0);
    let lo = [0, 1, 2].map(|a| bins.coord(a, q.min[a]));
    let hi = [0, 1, 2].map(|a| bins.coord(a, q.max[a]));
    // Binning is monotone: a site in a bin after `lo[a]` is `>= q.min` on
    // axis `a`, one in a bin before `hi[a]` is `< q.max`, and a face of `q`
    // outside the site bounding box holds for every site. Only members of a
    // bin on a face that cuts the sites need the test.
    let cut_lo = [0, 1, 2].map(|a| q.min[a] > sites.min[a]);
    let cut_hi = [0, 1, 2].map(|a| q.max[a] <= sites.max[a]);
    let edge = |a: usize, c: usize| (c == lo[a] && cut_lo[a]) || (c == hi[a] && cut_hi[a]);
    let mut set = |ci: u32| hits[ci as usize / 64] |= 1 << (ci % 64);
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            // Bins `a..b` of the row skip the test; the ones before and
            // after it take it.
            let end = hi[0] + 1;
            let (a, b) = if edge(1, y) || edge(2, z) {
                (end, end)
            } else {
                let a = lo[0] + usize::from(cut_lo[0]);
                (a, (end - usize::from(cut_hi[0])).max(a))
            };
            let tested = bins
                .row(y, z, lo[0]..a)
                .iter()
                .chain(bins.row(y, z, b..end));
            for &ci in tested {
                if q.contains(block.particles[ci as usize]) {
                    set(ci);
                }
            }
            bins.row(y, z, a..b).iter().for_each(|&ci| set(ci));
        }
    }
    true
}

/// A point lookup's nearest site so far: `(d2, site id, gid, cell)`.
type Nearest = Option<(f64, u64, u64, usize)>;

fn nearest_d2(best: &Nearest) -> f64 {
    best.map_or(f64::INFINITY, |b| b.0)
}

/// Offer `block`'s sites shifted by `shift` to `best` (ties to the smaller
/// site id), ring by ring from the bin of `q − shift` until
/// [`Bins::ring_lb`] at `scale` passes the best distance.
fn search_image(
    gid: u64,
    block: &MeshBlock,
    bins: &Bins,
    q: Vec3,
    shift: Vec3,
    scale: f64,
    best: &mut Nearest,
) {
    let c = q - shift;
    let rel = (c - bins.bounds().min).to_array();
    let coords = [0, 1, 2].map(|a| bins.coord(a, c[a]));
    for r in 0..=bins.max_ring() {
        let lb = bins.ring_lb(rel, coords, r, scale);
        if lb * lb > nearest_d2(best) {
            return;
        }
        bins.ring(coords, r, |members| {
            for &ci in members {
                let ci = ci as usize;
                // The expression the brute-force definition evaluates, so
                // the same bits.
                let d2 = (block.particles[ci] + shift).dist2(q);
                let id = block.site_ids[ci];
                if best.is_none_or(|(bd2, bid, ..)| d2 < bd2 || (d2 == bd2 && id < bid)) {
                    *best = Some((d2, id, gid, ci));
                }
            }
        });
    }
}

/// An immutable certified mesh at one epoch, with the lookup structures
/// queries run against. Published behind `Arc`; never mutated after build.
pub struct MeshSnapshot {
    pub epoch: u64,
    pub dec: Decomposition,
    /// The certified mesh blocks, keyed by gid.
    pub blocks: BTreeMap<u64, MeshBlock>,
    /// Rank-merged tessellation counters for this epoch.
    pub stats: TessStats,
    /// Sum of all cell volumes (canonical iteration order).
    pub total_volume: f64,
    pub total_cells: u64,
    /// One site grid per block, in gid order: the snapshot's one index.
    site_bins: Vec<Bins>,
}

impl MeshSnapshot {
    /// An empty epoch-0 snapshot (pre-first-tessellation placeholder).
    pub fn empty(dec: Decomposition) -> MeshSnapshot {
        MeshSnapshot {
            epoch: 0,
            dec,
            blocks: BTreeMap::new(),
            stats: TessStats::default(),
            total_volume: 0.0,
            total_cells: 0,
            site_bins: Vec::new(),
        }
    }

    /// Index a certified mesh: bin each block's cell sites for point, box
    /// and region answers, and total the cells and their volume.
    ///
    /// # Panics
    ///
    /// If some block's cell `i` does not have `site_idx == i`. Every block
    /// the tessellation assembles keeps that order.
    pub fn build(
        epoch: u64,
        dec: Decomposition,
        blocks: BTreeMap<u64, MeshBlock>,
        stats: TessStats,
    ) -> MeshSnapshot {
        let volumes = || blocks.values().flat_map(|b| b.cells.volumes());
        MeshSnapshot {
            epoch,
            dec,
            stats,
            total_volume: volumes().fold(0.0, |sum, &v| sum + v),
            total_cells: volumes().count() as u64,
            site_bins: blocks.values().map(site_bins).collect(),
            blocks,
        }
    }

    /// Wrap a query point into the domain on periodic axes — but only if
    /// it is actually outside, so in-domain coordinates keep their exact
    /// bits (the differential oracle depends on this).
    pub fn wrap_query(&self, p: Vec3) -> Vec3 {
        let d = &self.dec.domain;
        let e = d.extent();
        let mut q = p;
        for a in 0..3 {
            if self.dec.periodic[a] && (q[a] < d.min[a] || q[a] >= d.max[a]) {
                let mut v = d.min[a] + (q[a] - d.min[a]).rem_euclid(e[a]);
                if v >= d.max[a] {
                    v = d.min[a];
                }
                q[a] = v;
            }
        }
        q
    }

    /// Exact nearest-seed lookup (see module docs for the tie-break and
    /// periodic-image argument). `None` on an empty mesh or a NaN query.
    /// It walks the site grids and needs no stream buffers.
    pub fn lookup_point(&self, p: Vec3, _scratch: &mut StreamScratch) -> Option<PointHit> {
        let q = self.wrap_query(p);
        if q.x.is_nan() || q.y.is_nan() || q.z.is_nan() {
            return None;
        }
        let ext = self.dec.domain.extent();
        // Image offsets per axis, the unshifted sites first.
        let offs = self
            .dec
            .periodic
            .map(|p| if p { &[0, -1, 1][..] } else { &[0][..] });
        let mut best: Nearest = None;
        // The owning block first: its hit bounds the search everywhere else.
        let owner = self.dec.block_of_point(q);
        let blocks = || {
            let blocks = self.blocks.iter().zip(&self.site_bins);
            blocks.filter(|((_, b), _)| !b.cells.is_empty())
        };
        let owned = blocks().filter(|((&g, _), _)| g == owner);
        for ((&gid, block), bins) in owned.chain(blocks().filter(|((&g, _), _)| g != owner)) {
            let sites = bins.bounds();
            // At least every magnitude a bound or distance below rounds at.
            let scale =
                2.0 * (sites.min.max_abs().max(sites.max.max_abs()) + q.max_abs()) + ext.max_abs();
            let beyond = |d2: f64, best: &Nearest| {
                (d2.sqrt() - rounding_slack(scale)).max(0.0).powi(2) > nearest_d2(best)
            };
            // Squared gap on axis `a` from `q − k·ext` to the site box, per
            // offset `k` of `offs[a]`.
            let gap2 = [0, 1, 2].map(|a| {
                let mut g = [f64::INFINITY; 3];
                for (g, &k) in g.iter_mut().zip(offs[a]) {
                    let x = q[a] - k as f64 * ext[a];
                    *g = (sites.min[a] - x).max(x - sites.max[a]).max(0.0).powi(2);
                }
                g
            });
            // The nearest image's box first: most blocks end here.
            if beyond(gap2.iter().map(|g| g[0].min(g[1]).min(g[2])).sum(), &best) {
                continue;
            }
            for (iz, &kz) in offs[2].iter().enumerate() {
                for (iy, &ky) in offs[1].iter().enumerate() {
                    for (ix, &kx) in offs[0].iter().enumerate() {
                        if !beyond(gap2[0][ix] + gap2[1][iy] + gap2[2][iz], &best) {
                            let shift =
                                Vec3::new(kx as f64 * ext.x, ky as f64 * ext.y, kz as f64 * ext.z);
                            search_image(gid, block, bins, q, shift, scale, &mut best);
                        }
                    }
                }
            }
        }
        let (dist2, site_id, gid, ci) = best?;
        let cell = self.blocks[&gid].cells.cell(ci);
        Some(PointHit {
            site_id,
            gid,
            dist2,
            volume: cell.volume,
            area: cell.area,
            faces: cell.faces.len() as u32,
            complete: cell.complete,
        })
    }

    /// Call `f` on every cell whose site lies in the half-open `query` box,
    /// in canonical order: blocks by gid, cells by index within a block.
    fn for_each_in(&self, query: &Aabb, mut f: impl FnMut(u64, &MeshBlock, usize)) {
        // `min <= site < max` holds for no site unless `min < max` on every
        // axis, which also rules out a NaN corner.
        if !(0..3).all(|a| query.min[a] < query.max[a]) {
            return;
        }
        let mut hits = Vec::new();
        for ((&gid, b), bins) in self.blocks.iter().zip(&self.site_bins) {
            if !mark(bins, b, query, &mut hits) {
                continue;
            }
            for (w, &word) in hits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    f(gid, b, w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Cells whose site lies in the half-open `query` box, sorted by site
    /// id. Membership uses the site's primary (stored) position, so boxes
    /// partitioning the domain partition the cells.
    pub fn box_cells(&self, query: Aabb) -> Vec<CellSummary> {
        let mut out = Vec::new();
        self.for_each_in(&query, |gid, b, ci| {
            let cell = b.cells.cell(ci);
            out.push(CellSummary {
                site_id: b.site_id_of(cell),
                gid,
                volume: cell.volume,
                area: cell.area,
                faces: cell.faces.len() as u32,
                complete: cell.complete,
            })
        });
        out.sort_by_key(|c| c.site_id);
        out
    }

    /// Aggregate volume/area/density over cells whose sites lie in the
    /// half-open `query` box (canonical block/cell accumulation order).
    pub fn region_summary(&self, query: Aabb) -> RegionSummary {
        let mut cells = 0u64;
        let mut volume = 0.0;
        let mut area = 0.0;
        self.for_each_in(&query, |_, b, ci| {
            cells += 1;
            volume += b.cells.volumes()[ci];
            area += b.cells.areas()[ci];
        });
        let e = query.extent();
        let box_vol = e.x * e.y * e.z;
        let density = if box_vol > 0.0 {
            cells as f64 / box_vol
        } else {
            0.0
        };
        RegionSummary {
            cells,
            volume,
            area,
            density,
        }
    }

    /// Answer one query directly against this snapshot (the workers'
    /// batched path calls the same primitives).
    pub fn answer(&self, q: &Query, scratch: &mut StreamScratch) -> Answer {
        match q {
            Query::Point(p) => Answer::Point(self.lookup_point(*p, scratch)),
            Query::BoxCells(b) => Answer::BoxCells(self.box_cells(*b)),
            Query::Region(b) => Answer::Region(self.region_summary(*b)),
        }
    }
}

/// SoA particle store with id-indexed upsert/remove.
#[derive(Default)]
pub struct ParticleStore {
    ids: Vec<u64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    slot: HashMap<u64, usize>,
}

impl ParticleStore {
    pub fn new() -> ParticleStore {
        ParticleStore::default()
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Insert or move a particle; returns its previous position.
    pub fn upsert(&mut self, id: u64, p: Vec3) -> Option<Vec3> {
        match self.slot.get(&id) {
            Some(&i) => {
                let old = Vec3::new(self.xs[i], self.ys[i], self.zs[i]);
                self.xs[i] = p.x;
                self.ys[i] = p.y;
                self.zs[i] = p.z;
                Some(old)
            }
            None => {
                self.slot.insert(id, self.ids.len());
                self.ids.push(id);
                self.xs.push(p.x);
                self.ys.push(p.y);
                self.zs.push(p.z);
                None
            }
        }
    }

    /// Remove a particle; `false` if the id was absent.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(i) = self.slot.remove(&id) else {
            return false;
        };
        self.ids.swap_remove(i);
        self.xs.swap_remove(i);
        self.ys.swap_remove(i);
        self.zs.swap_remove(i);
        if i < self.ids.len() {
            self.slot.insert(self.ids[i], i);
        }
        true
    }

    pub fn get(&self, id: u64) -> Option<Vec3> {
        self.slot
            .get(&id)
            .map(|&i| Vec3::new(self.xs[i], self.ys[i], self.zs[i]))
    }

    /// All particle positions in slot order (for balance measurement).
    pub fn positions(&self) -> Vec<Vec3> {
        self.iter().map(|(_, p)| p).collect()
    }

    /// `(id, position)` in slot order.
    fn iter(&self) -> impl Iterator<Item = (u64, Vec3)> + '_ {
        (0..self.ids.len()).map(|i| (self.ids[i], Vec3::new(self.xs[i], self.ys[i], self.zs[i])))
    }

    /// Partition into per-block particle lists, each sorted by particle id
    /// (canonical: independent of insertion/removal history).
    pub fn partition(&self, dec: &Decomposition) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
        let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = BTreeMap::new();
        for gid in 0..dec.nblocks() as u64 {
            local.insert(gid, Vec::new());
        }
        for (i, &id) in self.ids.iter().enumerate() {
            let p = Vec3::new(self.xs[i], self.ys[i], self.zs[i]);
            let gid = dec.block_of_point(p);
            local.get_mut(&gid).expect("gid in range").push((id, p));
        }
        for v in local.values_mut() {
            v.sort_by_key(|&(id, _)| id);
        }
        local
    }
}

/// Running counters, read from the service's `service.*` telemetry
/// counters. `enqueued == answered` once the queue is drained (shutdown
/// drains before exiting); `rejected` counts submissions after shutdown,
/// which never enter the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    pub enqueued: u64,
    pub answered: u64,
    pub rejected: u64,
    pub batches: u64,
    /// Requests answered from another request's computation (bit-equal
    /// duplicates within a batch).
    pub coalesced: u64,
    pub epochs_published: u64,
}

/// Live [`diy::telemetry`] handles for this service, registered once at
/// spawn under `service.*` on the service's own [`Registry`]. Each event
/// updates exactly one of them; updates are relaxed atomics
/// (counters/gauges) or a short mutex (histograms), cheap enough for the
/// hot query path.
struct ServiceTelemetry {
    queue_depth: telemetry::Gauge,
    epoch: telemetry::Gauge,
    particles: telemetry::Gauge,
    cells: telemetry::Gauge,
    /// Max/mean particle count over resident ranks (from [`BalanceStats`],
    /// recomputed at every publish).
    rank_imbalance: telemetry::Gauge,
    /// `coalesced / answered` so far (1 request's compute reused N ways).
    coalesce_rate: telemetry::Gauge,
    enqueued: telemetry::Counter,
    answered: telemetry::Counter,
    rejected: telemetry::Counter,
    batches: telemetry::Counter,
    coalesced: telemetry::Counter,
    epochs_published: telemetry::Counter,
    /// Cells an epoch copied from the one before, and cell computations
    /// the kernel ran (both summed over epochs).
    cells_reused: telemetry::Counter,
    cells_computed: telemetry::Counter,
    batch_size: telemetry::Hist,
    /// Per update: updater lock taken to the next epoch published.
    update_ns: telemetry::Hist,
    latency_point: telemetry::Hist,
    latency_box: telemetry::Hist,
    latency_region: telemetry::Hist,
}

impl ServiceTelemetry {
    fn register(reg: &Registry) -> ServiceTelemetry {
        let lat = |kind: &str| reg.histogram("service.latency_ns", &[("kind", kind)]);
        ServiceTelemetry {
            queue_depth: reg.gauge("service.queue_depth", &[]),
            epoch: reg.gauge("service.epoch", &[]),
            particles: reg.gauge("service.particles", &[]),
            cells: reg.gauge("service.cells", &[]),
            rank_imbalance: reg.gauge("service.rank_imbalance", &[]),
            coalesce_rate: reg.gauge("service.coalesce_rate", &[]),
            enqueued: reg.counter("service.enqueued", &[]),
            answered: reg.counter("service.answered", &[]),
            rejected: reg.counter("service.rejected", &[]),
            batches: reg.counter("service.batches", &[]),
            coalesced: reg.counter("service.coalesced", &[]),
            epochs_published: reg.counter("service.epochs_published", &[]),
            cells_reused: reg.counter("service.cells_reused", &[]),
            cells_computed: reg.counter("service.cells_computed", &[]),
            batch_size: reg.histogram("service.batch_size", &[]),
            update_ns: reg.histogram("service.update_ns", &[]),
            latency_point: lat("point"),
            latency_box: lat("box"),
            latency_region: lat("region"),
        }
    }

    fn latency_for(&self, a: &Answer) -> &telemetry::Hist {
        match a {
            Answer::Point(_) => &self.latency_point,
            Answer::BoxCells(_) => &self.latency_box,
            Answer::Region(_) => &self.latency_region,
        }
    }
}

fn query_span_name(q: &Query) -> &'static str {
    match q {
        Query::Point(_) => "query:point",
        Query::BoxCells(_) => "query:box",
        Query::Region(_) => "query:region",
    }
}

struct Request {
    id: u64,
    enq_ns: u64,
    query: Query,
    reply: mpsc::Sender<Response>,
}

struct QueueState {
    queue: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    snap: RwLock<Arc<MeshSnapshot>>,
    next_id: AtomicU64,
    batch_max: usize,
    /// The service's own series; `tele` holds the handles registered on it.
    registry: Registry,
    tele: ServiceTelemetry,
    /// Request-scoped flight recorder: every event for request `id` lands
    /// on tid `id`, so one query's enqueue→batch→block→reply renders as a
    /// single Chrome-trace track. Active only when [`trace_mode`] records.
    trace: Mutex<TraceState>,
}

impl Shared {
    /// Record one request-lifecycle event (no-op when tracing is off).
    fn trace_request(&self, kind: EventKind, name: &str, req_id: u64, a: u64, b: u64) {
        if trace_mode() < TraceMode::Spans {
            return;
        }
        let mut tr = self.trace.lock().unwrap();
        let idx = tr.intern(name);
        tr.push(Event {
            t_ns: monotonic_ns(),
            kind,
            tid: req_id as u32,
            name: idx,
            a,
            b,
        });
    }
}

/// A submitted query; `wait` blocks for its response.
pub struct Pending {
    pub id: u64,
    rx: mpsc::Receiver<Response>,
}

impl Pending {
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .expect("service answers every accepted request")
    }

    pub fn try_wait(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }
}

/// The service was shut down; the submission was rejected (and counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mesh service is shut down")
    }
}

impl std::error::Error for ServiceClosed {}

struct UpdaterState {
    dec: Decomposition,
    asn: Assignment,
    store: ParticleStore,
    /// What the published epoch's kept cells carry into the next one, per
    /// block (their geometry is the published snapshot's).
    carry: Arc<BTreeMap<u64, Vec<CellCarry>>>,
}

/// Record a particle going from `old` to `new` (`None`: absent) in the
/// moved set, unless its position bits stay the same.
fn note_move(moved: &mut Vec<Vec3>, old: Option<Vec3>, new: Option<Vec3>) {
    match (old, new) {
        (Some(a), Some(b)) if same_bits(a, b) => {}
        _ => moved.extend(old.into_iter().chain(new)),
    }
}

/// The resident mesh service. See module docs.
pub struct MeshService {
    shared: Arc<Shared>,
    runtime: ResidentRuntime,
    updater: Mutex<UpdaterState>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    params: TessParams,
}

impl MeshService {
    /// Spawn the resident ranks and query workers, ingest `particles`, and
    /// publish epoch 1 (the first certified mesh) before returning.
    pub fn spawn(
        domain: Aabb,
        periodic: [bool; 3],
        particles: &[(u64, Vec3)],
        cfg: ServiceConfig,
    ) -> MeshService {
        assert!(cfg.nranks > 0 && cfg.nblocks > 0);
        let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
        let dec = cfg.decomp.build(domain, cfg.nblocks, periodic, &positions);
        // Weighted placement: bin the contiguous gid ranges by spawn-time
        // particle count, so uneven blocks still land balanced on ranks.
        // The assignment never affects the published mesh (cells are
        // certified per block), only which resident rank computes them.
        let mut block_weights = vec![0u64; cfg.nblocks];
        for &p in &positions {
            block_weights[dec.block_of_point(p) as usize] += 1;
        }
        let asn = Assignment::weighted(&block_weights, cfg.nranks);
        let mut store = ParticleStore::new();
        for &(id, p) in particles {
            store.upsert(id, p);
        }
        let registry = Registry::new();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            snap: RwLock::new(Arc::new(MeshSnapshot::empty(dec.clone()))),
            next_id: AtomicU64::new(1),
            batch_max: cfg.batch_max.max(1),
            tele: ServiceTelemetry::register(&registry),
            registry,
            trace: Mutex::new(TraceState::new()),
        });
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mesh-service-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn service worker"),
            );
        }
        let svc = MeshService {
            shared,
            runtime: ResidentRuntime::spawn(cfg.nranks),
            updater: Mutex::new(UpdaterState {
                dec,
                asn,
                store,
                carry: Arc::default(),
            }),
            workers: Mutex::new(workers),
            params: cfg.params,
        };
        {
            let mut upd = svc.updater.lock().unwrap();
            svc.retessellate_publish(&mut upd, None);
        }
        svc
    }

    /// The currently published snapshot (an epoch pin: the returned mesh
    /// never changes, even across updates).
    pub fn snapshot(&self) -> Arc<MeshSnapshot> {
        self.shared.snap.read().unwrap().clone()
    }

    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Submit a query; returns a [`Pending`] handle carrying the request
    /// id. Rejected (with accounting) after shutdown.
    pub fn submit(&self, query: Query) -> Result<Pending, ServiceClosed> {
        let (tx, rx) = mpsc::channel();
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let span = query_span_name(&query);
        {
            let mut st = self.shared.queue.lock().unwrap();
            if st.shutdown {
                self.shared.tele.rejected.inc();
                return Err(ServiceClosed);
            }
            // Begin the request span before the worker can see (and
            // answer) the request, so the track always opens before it
            // closes. Lock order is queue → trace everywhere.
            self.shared
                .trace_request(EventKind::SpanBegin, span, id, id, 0);
            st.queue.push_back(Request {
                id,
                enq_ns: monotonic_ns(),
                query,
                reply: tx,
            });
            self.shared.tele.enqueued.inc();
            self.shared.tele.queue_depth.set_u64(st.queue.len() as u64);
        }
        self.shared.cv.notify_one();
        Ok(Pending { id, rx })
    }

    /// Submit and block for the response.
    pub fn query(&self, query: Query) -> Result<Response, ServiceClosed> {
        Ok(self.submit(query)?.wait())
    }

    /// Apply an update and publish the next epoch. Updates serialize;
    /// queries keep draining against the previous epoch throughout. Both
    /// kinds reduce to the set of positions that changed: the old and new
    /// position of every moved particle, the new one of an inserted id and
    /// the old one of a removed id.
    pub fn update(&self, u: Update) -> UpdateReport {
        let mut upd = self.updater.lock().unwrap();
        let locked_ns = monotonic_ns();
        let mut moved = Vec::new();
        match u {
            Update::Delta { upserts, removes } => {
                for (id, p) in upserts {
                    let old = upd.store.upsert(id, p);
                    note_move(&mut moved, old, Some(p));
                }
                for id in removes {
                    let old = upd.store.get(id);
                    if upd.store.remove(id) {
                        note_move(&mut moved, old, None);
                    }
                }
            }
            Update::Snapshot(parts) => {
                let mut next = ParticleStore::new();
                for (id, p) in parts {
                    next.upsert(id, p);
                }
                for (id, p) in next.iter() {
                    note_move(&mut moved, upd.store.get(id), Some(p));
                }
                for (id, p) in upd.store.iter() {
                    if next.get(id).is_none() {
                        note_move(&mut moved, Some(p), None);
                    }
                }
                upd.store = next;
            }
        }
        let report = self.retessellate_publish(&mut upd, Some(moved));
        self.shared
            .tele
            .update_ns
            .observe_u64(monotonic_ns().saturating_sub(locked_ns));
        report
    }

    /// Current counter values.
    pub fn stats(&self) -> ServiceStats {
        let t = &self.shared.tele;
        ServiceStats {
            enqueued: t.enqueued.get(),
            answered: t.answered.get(),
            rejected: t.rejected.get(),
            batches: t.batches.get(),
            coalesced: t.coalesced.get(),
            epochs_published: t.epochs_published.get(),
        }
    }

    /// This service's live series (`service.*`, plus the `mem.*` /
    /// `proc.*` gauges sampled at snapshot time): the one record behind
    /// [`stats`](Self::stats) and every scrape.
    pub fn telemetry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Snapshot the request-scoped flight recorder (empty unless
    /// `TESS_TRACE`/[`diy::trace::set_trace_mode`] enabled recording while
    /// requests flowed). Every request's enqueue→batch→block→reply events
    /// share one tid — its id — so `diy::chrome_trace_json` renders each
    /// query's life as a single track under pid [`SERVICE_TRACE_PID`].
    pub fn trace_snapshot(&self) -> RankTrace {
        self.shared
            .trace
            .lock()
            .unwrap()
            .snapshot(SERVICE_TRACE_PID)
    }

    /// Drain the queue, stop the workers, and return the final counters.
    /// Every accepted request is answered before workers exit; idempotent.
    pub fn shutdown(&self) -> ServiceStats {
        {
            let mut st = self.shared.queue.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for h in workers.drain(..) {
            let _ = h.join();
        }
        self.stats()
    }

    /// Re-tessellate the store on the resident ranks and atomically publish
    /// the next epoch. With `moved` — the positions that changed since the
    /// published epoch, all finite — every cell the published epoch proves
    /// unchanged is copied from it and only the rest are computed; without,
    /// every cell is.
    fn retessellate_publish(
        &self,
        upd: &mut UpdaterState,
        moved: Option<Vec<Vec3>>,
    ) -> UpdateReport {
        let dec = upd.dec.clone();
        let asn = upd.asn.clone();
        let params = self.params;
        let t0 = std::time::Instant::now();
        let moved = moved
            .filter(|m| m.iter().all(|p| p.is_finite()))
            .map(|m| MovedSet::new(dec.domain, dec.periodic, &m));
        // Partition once; each rank borrows its own blocks' particles.
        let mut parts: Vec<BTreeMap<u64, Vec<(u64, Vec3)>>> = vec![BTreeMap::new(); asn.nranks];
        for (gid, own) in upd.store.partition(&dec) {
            parts[asn.rank_of_block(gid)].insert(gid, own);
        }
        let parts = Arc::new(parts);
        let published = self.snapshot();
        let carry = Arc::clone(&upd.carry);
        let results = self.runtime.run(move |world| {
            let prev = moved.as_ref().map(|moved| PrevEpoch {
                blocks: &published.blocks,
                carry: &carry,
                moved,
            });
            let local = &parts[world.rank()];
            let (r, carry) =
                tessellate_incremental(world, &dec, &asn, local, &params, prev.as_ref());
            (r.blocks, carry, r.stats)
        });
        let tess_wall_s = t0.elapsed().as_secs_f64();
        let mut blocks = BTreeMap::new();
        let mut carry = BTreeMap::new();
        let mut stats = TessStats::default();
        for (rank_blocks, rank_carry, rank_stats) in results {
            stats = stats.merge(rank_stats);
            blocks.extend(rank_blocks);
            carry.extend(rank_carry);
        }
        upd.carry = Arc::new(carry);
        let prev_epoch = self.shared.snap.read().unwrap().epoch;
        let snap = Arc::new(MeshSnapshot::build(
            prev_epoch + 1,
            upd.dec.clone(),
            blocks,
            stats,
        ));
        let report = UpdateReport {
            epoch: snap.epoch,
            particles: upd.store.len() as u64,
            cells: snap.total_cells,
            stats: snap.stats,
            tess_wall_s,
        };
        *self.shared.snap.write().unwrap() = snap;

        // Live publish-side telemetry: epoch, sizes, kernel work, and rank
        // balance of the particle placement the next update will compute
        // under.
        let tele = &self.shared.tele;
        tele.epochs_published.inc();
        tele.epoch.set_u64(report.epoch);
        tele.particles.set_u64(report.particles);
        tele.cells.set_u64(report.cells);
        tele.cells_reused.add(report.stats.cells_reused);
        tele.cells_computed.add(report.stats.cells_computed);
        let bal = BalanceStats::measure(&upd.dec, &upd.asn, &upd.store.positions());
        tele.rank_imbalance.set(bal.rank_imbalance());
        report
    }
}

impl Drop for MeshService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Coalescing key: the exact bit pattern of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum QueryKey {
    Point([u64; 3]),
    BoxCells([u64; 6]),
    Region([u64; 6]),
}

fn query_key(q: &Query) -> QueryKey {
    let bits3 = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    let bits6 = |b: &Aabb| {
        let lo = bits3(b.min);
        let hi = bits3(b.max);
        [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]]
    };
    match q {
        Query::Point(p) => QueryKey::Point(bits3(*p)),
        Query::BoxCells(b) => QueryKey::BoxCells(bits6(b)),
        Query::Region(b) => QueryKey::Region(bits6(b)),
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let batch = {
            let mut st = shared.queue.lock().unwrap();
            while st.queue.is_empty() && !st.shutdown {
                st = shared.cv.wait(st).unwrap();
            }
            if st.queue.is_empty() {
                // shutdown with an empty queue: drained, exit
                return;
            }
            let take = st.queue.len().min(shared.batch_max);
            let batch: Vec<Request> = st.queue.drain(..take).collect();
            shared.tele.queue_depth.set_u64(st.queue.len() as u64);
            batch
        };
        shared.tele.batches.inc();
        shared.tele.batch_size.observe_u64(batch.len() as u64);
        process_batch(&shared, batch);
    }
}

/// Answer one drained batch against a single pinned snapshot. Point
/// lookups are grouped by owning block and answered in canonical order
/// within a group; bit-equal duplicates are computed once.
fn process_batch(shared: &Shared, batch: Vec<Request>) {
    // Pin the epoch for the whole batch.
    let snap: Arc<MeshSnapshot> = shared.snap.read().unwrap().clone();
    // No answer uses stream buffers; the empty ones allocate nothing.
    let scratch = &mut StreamScratch::default();

    // Each drained request joins this batch on its own trace track
    // (`a` = the pinned epoch the batch answers against).
    for req in &batch {
        shared.trace_request(EventKind::Mark, "batch", req.id, snap.epoch, 0);
    }

    // gid → key → requests (BTreeMaps: deterministic processing order).
    let mut points: BTreeMap<u64, BTreeMap<QueryKey, Vec<Request>>> = BTreeMap::new();
    let mut others: BTreeMap<QueryKey, Vec<Request>> = BTreeMap::new();
    for req in batch {
        let key = query_key(&req.query);
        match &req.query {
            Query::Point(p) => {
                let gid = snap.dec.block_of_point(snap.wrap_query(*p));
                points
                    .entry(gid)
                    .or_default()
                    .entry(key)
                    .or_default()
                    .push(req);
            }
            _ => others.entry(key).or_default().push(req),
        }
    }

    let (mut coalesced, mut answered) = (0u64, 0u64);
    let mut reply_all = |mut reqs: Vec<Request>, answer: Answer| {
        coalesced += (reqs.len() as u64).saturating_sub(1);
        answered += reqs.len() as u64;
        let lat_hist = shared.tele.latency_for(&answer);
        let span = query_span_name(&reqs[0].query);
        let reply = |req: Request, answer: Answer| {
            let latency_ns = monotonic_ns().saturating_sub(req.enq_ns);
            lat_hist.observe_u64(latency_ns);
            // Close the request's span (`b` = latency) BEFORE sending the
            // reply: a client that snapshots the recorder after `wait()`
            // returns must always see its track complete.
            shared.trace_request(EventKind::SpanEnd, span, req.id, req.id, latency_ns);
            let _ = req.reply.send(Response {
                id: req.id,
                epoch: snap.epoch,
                answer,
                latency_ns,
            });
        };
        // The last requester takes the answer itself; only duplicates copy.
        let last = reqs.pop().expect("a request group is never empty");
        for req in reqs {
            reply(req, answer.clone());
        }
        reply(last, answer);
    };

    // Point lookups, one owning-block group after another.
    for (gid, group) in points {
        for (key, reqs) in group {
            let QueryKey::Point(bits) = key else {
                unreachable!("point group holds point keys")
            };
            let p = Vec3::new(
                f64::from_bits(bits[0]),
                f64::from_bits(bits[1]),
                f64::from_bits(bits[2]),
            );
            for req in &reqs {
                shared.trace_request(EventKind::Mark, "block", req.id, gid, 0);
            }
            let answer = Answer::Point(snap.lookup_point(p, scratch));
            reply_all(reqs, answer);
        }
    }
    for (key, reqs) in others {
        let q = &reqs[0].query;
        debug_assert_eq!(query_key(q), key);
        let answer = snap.answer(q, scratch);
        reply_all(reqs, answer);
    }

    let tele = &shared.tele;
    tele.coalesced.add(coalesced);
    tele.answered.add(answered);
    let total_answered = tele.answered.get();
    if total_answered > 0 {
        tele.coalesce_rate
            .set(tele.coalesced.get() as f64 / total_answered as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GhostSpec;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0))
    }

    fn lattice(n: usize) -> Vec<(u64, Vec3)> {
        let mut out = Vec::new();
        let h = 1.0 / n as f64;
        let mut id = 0u64;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    out.push((
                        id,
                        Vec3::new(
                            (i as f64 + 0.5) * h,
                            (j as f64 + 0.5) * h,
                            (k as f64 + 0.5) * h,
                        ),
                    ));
                    id += 1;
                }
            }
        }
        out
    }

    fn small_service() -> MeshService {
        let params = TessParams {
            ghost: GhostSpec::Auto { factor: 2.5 },
            ..TessParams::default()
        };
        MeshService::spawn(
            unit_box(),
            [true; 3],
            &lattice(4),
            ServiceConfig::new(2, 4).with_workers(2).with_params(params),
        )
    }

    #[test]
    fn service_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MeshService>();
        assert_send_sync::<MeshSnapshot>();
    }

    #[test]
    fn store_upsert_remove_roundtrip() {
        let mut s = ParticleStore::new();
        s.upsert(7, Vec3::new(0.1, 0.2, 0.3));
        s.upsert(3, Vec3::new(0.4, 0.5, 0.6));
        s.upsert(7, Vec3::new(0.9, 0.9, 0.9));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(7), Some(Vec3::new(0.9, 0.9, 0.9)));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(3), Some(Vec3::new(0.4, 0.5, 0.6)));
        let dec = Decomposition::regular(unit_box(), 2, [false; 3]);
        let parts = s.partition(&dec);
        assert_eq!(parts.values().map(|v| v.len()).sum::<usize>(), 1);
    }

    #[test]
    fn spawn_publishes_epoch_one_and_answers() {
        let svc = small_service();
        assert_eq!(svc.epoch(), 1);
        let r = svc
            .query(Query::Point(Vec3::new(0.13, 0.62, 0.88)))
            .unwrap();
        assert_eq!(r.epoch, 1);
        let Answer::Point(Some(hit)) = r.answer else {
            panic!("expected a point hit")
        };
        assert!(hit.volume > 0.0);
        // whole-domain region conserves total volume exactly (same
        // iteration order as the snapshot total)
        let snap = svc.snapshot();
        let whole = svc.query(Query::Region(unit_box())).unwrap();
        let Answer::Region(sum) = whole.answer else {
            panic!("expected a region answer")
        };
        assert_eq!(sum.cells, snap.total_cells);
        assert!((sum.volume - snap.total_volume).abs() < 1e-12);
    }

    #[test]
    fn update_publishes_next_epoch_and_old_pin_survives() {
        let svc = small_service();
        let pin = svc.snapshot();
        let rep = svc.update(Update::Delta {
            upserts: vec![(1_000_000, Vec3::new(0.51, 0.49, 0.52))],
            removes: vec![0],
        });
        assert_eq!(rep.epoch, 2);
        assert_eq!(svc.epoch(), 2);
        // The pinned pre-update snapshot is untouched.
        assert_eq!(pin.epoch, 1);
        assert_eq!(pin.total_cells, 64);
        assert_eq!(svc.snapshot().total_cells, 64); // one removed, one added
    }

    #[test]
    fn shutdown_accounting_and_rejection() {
        let svc = small_service();
        let p = svc.submit(Query::Point(Vec3::new(0.5, 0.5, 0.5))).unwrap();
        let r = p.wait();
        assert!(r.latency_ns > 0);
        let stats = svc.shutdown();
        assert_eq!(stats.enqueued, stats.answered);
        assert_eq!(stats.rejected, 0);
        assert!(svc.submit(Query::Point(Vec3::new(0.1, 0.1, 0.1))).is_err());
        assert_eq!(svc.stats().rejected, 1);
        // one latency sample per answer, split across the three kinds
        let reg = svc.telemetry();
        let latencies: u64 = ["point", "box", "region"]
            .map(|kind| {
                let h = reg.histogram("service.latency_ns", &[("kind", kind)]);
                h.read().total().n()
            })
            .iter()
            .sum();
        assert_eq!(latencies, stats.answered);
        assert_eq!(
            reg.histogram("service.batch_size", &[]).read().total().n(),
            stats.batches
        );
    }

    #[test]
    fn coalescing_counts_duplicates() {
        let svc = small_service();
        let q = Query::Point(Vec3::new(0.25, 0.25, 0.25));
        let pending: Vec<Pending> = (0..8).map(|_| svc.submit(q.clone()).unwrap()).collect();
        let responses: Vec<Response> = pending.into_iter().map(|p| p.wait()).collect();
        let first = &responses[0];
        for r in &responses {
            assert_eq!(r.answer, first.answer);
        }
        // Distinct ids, each answered exactly once.
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn empty_mesh_answers_none() {
        let dec = Decomposition::regular(unit_box(), 4, [true; 3]);
        let snap = MeshSnapshot::empty(dec);
        let mut scratch = StreamScratch::default();
        assert_eq!(
            snap.lookup_point(Vec3::new(0.5, 0.5, 0.5), &mut scratch),
            None
        );
        for q in degenerate_boxes()
            .into_iter()
            .chain([unit_box(), everything()])
        {
            assert_matches_nothing(&snap, q);
        }
    }

    /// Every coordinate, infinities included.
    fn everything() -> Aabb {
        Aabb {
            min: Vec3::splat(f64::NEG_INFINITY),
            max: Vec3::splat(f64::INFINITY),
        }
    }

    /// Boxes no site lies in: NaN corners, an inverted box, a zero-extent
    /// one, and boxes wholly outside the domain.
    fn degenerate_boxes() -> Vec<Aabb> {
        let nan = f64::NAN;
        vec![
            Aabb {
                min: Vec3::new(nan, 0.0, 0.0),
                max: Vec3::splat(1.0),
            },
            Aabb {
                min: Vec3::ZERO,
                max: Vec3::new(1.0, 1.0, nan),
            },
            Aabb {
                min: Vec3::splat(nan),
                max: Vec3::splat(nan),
            },
            Aabb {
                min: Vec3::new(0.8, 0.0, 0.0),
                max: Vec3::new(0.2, 1.0, 1.0),
            },
            Aabb::new(Vec3::splat(0.375), Vec3::new(0.375, 1.0, 1.0)),
            Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0)),
            Aabb::new(Vec3::splat(-3.0), Vec3::splat(-2.0)),
            Aabb {
                min: Vec3::splat(f64::INFINITY),
                max: Vec3::splat(f64::INFINITY),
            },
        ]
    }

    fn assert_matches_nothing(snap: &MeshSnapshot, q: Aabb) {
        assert!(snap.box_cells(q).is_empty(), "{q:?}");
        let s = snap.region_summary(q);
        assert_eq!(
            (
                s.cells,
                s.volume.to_bits(),
                s.area.to_bits(),
                s.density.to_bits()
            ),
            (0, 0, 0, 0),
            "{q:?}"
        );
    }

    #[test]
    fn degenerate_boxes_answer_exactly() {
        let svc = small_service();
        let snap = svc.snapshot();
        for q in degenerate_boxes() {
            assert_matches_nothing(&snap, q);
        }
        // Infinite corners clamp into the grid: the whole mesh, summed in
        // the canonical order of the snapshot total.
        let all = snap.box_cells(everything());
        assert_eq!(all.len() as u64, snap.total_cells);
        assert!(all.windows(2).all(|w| w[0].site_id < w[1].site_id));
        let s = snap.region_summary(everything());
        assert_eq!(s.cells, snap.total_cells);
        assert_eq!(s.volume.to_bits(), snap.total_volume.to_bits());
        assert_eq!(s.density.to_bits(), 0.0f64.to_bits());
        // Half-infinite: the sites with x >= 0.5, in canonical order.
        let q = Aabb {
            min: Vec3::new(0.5, f64::NEG_INFINITY, f64::NEG_INFINITY),
            max: Vec3::splat(f64::INFINITY),
        };
        let (mut cells, mut volume) = (0u64, 0.0);
        for b in snap.blocks.values() {
            for c in b.cells.iter().filter(|c| b.site_of(*c).x >= 0.5) {
                cells += 1;
                volume += c.volume;
            }
        }
        assert_eq!(snap.box_cells(q).len() as u64, cells);
        let s = snap.region_summary(q);
        assert_eq!((s.cells, s.volume.to_bits()), (cells, volume.to_bits()));
    }

    /// The site grid reads cell `i`'s site at `particles[i]`; a block that
    /// breaks that order is refused instead of answered wrongly.
    #[test]
    #[should_panic(expected = "must store its site at particles[i]")]
    fn build_refuses_cells_out_of_site_order() {
        let svc = small_service();
        let snap = svc.snapshot();
        let mut blocks = snap.blocks.clone();
        let block = blocks.values_mut().find(|b| b.cells.len() > 1).unwrap();
        let mut swapped = crate::model::Cells::default();
        for i in [1, 0].into_iter().chain(2..block.cells.len()) {
            let c = block.cells.cell(i);
            swapped.push_mapped(c, c.site_idx, |v| v);
        }
        block.cells = swapped;
        MeshSnapshot::build(2, snap.dec.clone(), blocks, snap.stats);
    }
}
