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

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use diy::hist::LogHistogram;
use diy::trace::{monotonic_ns, trace_mode, TraceMode};
use geometry::{Aabb, Vec3};
use rayon::prelude::*;

use crate::cell::{compute_cell, CellContext, CellScratch, ComputedCell};
use crate::grid::CandidateGrid;
use crate::model::{Cell, Face, MeshBlock, NO_NEIGHBOR};
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

struct Kept {
    site_idx: u32,
    volume: f64,
    area: f64,
    complete: bool,
    /// Security-ball diameter squared at compute time; debug builds check
    /// later ghost rounds against it.
    sec2: f64,
    /// Per face: the neighbor's global id and the loop length; the loops'
    /// points are back to back in `points`.
    faces: Vec<(u64, u32)>,
    points: Vec<Vec3>,
}

enum Outcome {
    Kept(Box<Kept>),
    Incomplete,
    CulledEarly { certified: bool },
    CulledLate { certified: bool },
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
            Outcome::Incomplete => false,
            Outcome::CulledEarly { certified } | Outcome::CulledLate { certified } => *certified,
        }
    }
}

struct CellRecord {
    outcome: Outcome,
    /// Ghost radius this cell would need to certify (0 when certified).
    needed: f64,
}

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

/// Resumable per-block tessellation state for the adaptive ghost loop.
pub struct BlockSession {
    gid: u64,
    bounds: Aabb,
    /// Ghosted region of the most recent pass.
    region: Aabb,
    records: Vec<CellRecord>,
    cells_computed: u64,
    cells_reused: u64,
    candidates_tested: u64,
    prefilter_skipped: u64,
    obs: CellObs,
}

thread_local! {
    /// Per-thread kernel scratch: pool workers and rank threads each reuse
    /// one across every cell they compute.
    static SCRATCH: RefCell<CellScratch> = RefCell::new(CellScratch::default());
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
    let (block, stats, _) =
        tessellate_block_certified(gid, bounds, own, ghosts, ghost_size, params);
    (block, stats)
}

/// [`tessellate_block`] variant that also reports how much more ghost
/// radius the block's uncertified cells would need (the adaptive ghost
/// loop's per-block feedback signal).
pub fn tessellate_block_certified(
    gid: u64,
    bounds: Aabb,
    own: &[(u64, Vec3)],
    ghosts: &[(u64, Vec3)],
    ghost_size: f64,
    params: &TessParams,
) -> (MeshBlock, TessStats, BlockCertification) {
    let (block, stats, cert, _) =
        tessellate_block_session(gid, bounds, own, ghosts, ghost_size, params);
    (block, stats, cert)
}

/// Full tessellation pass that also returns the [`BlockSession`] later
/// rounds can resume from.
pub fn tessellate_block_session(
    gid: u64,
    bounds: Aabb,
    own: &[(u64, Vec3)],
    ghosts: &[(u64, Vec3)],
    ghost_size: f64,
    params: &TessParams,
) -> (MeshBlock, TessStats, BlockCertification, BlockSession) {
    let region = bounds.grown(ghost_size);
    let mut session = BlockSession {
        gid,
        bounds,
        region,
        records: Vec::new(),
        cells_computed: 0,
        cells_reused: 0,
        candidates_tested: 0,
        prefilter_skipped: 0,
        obs: CellObs::default(),
    };
    let (pts, ids) = flatten(own, ghosts);
    let indices: Vec<usize> = (0..own.len()).collect();
    let records = compute_records(&session, &pts, &ids, &indices, &region, params);
    session.cells_computed = indices.len() as u64;
    let mut obs = std::mem::take(&mut session.obs);
    session.records = records
        .into_iter()
        .enumerate()
        .map(|(i, (record, tested, skipped, ns))| {
            session.candidates_tested = session.candidates_tested.saturating_add(tested);
            session.prefilter_skipped = session.prefilter_skipped.saturating_add(skipped);
            obs.note(tested, ns);
            obs.note_slow(ns, own[i].0);
            record
        })
        .collect();
    session.obs = obs;
    let (block, stats, cert) = assemble(&session, &pts, &ids, ghosts.len());
    (block, stats, cert, session)
}

impl BlockSession {
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
    ) -> (MeshBlock, TessStats, BlockCertification) {
        assert_eq!(
            self.records.len(),
            own.len(),
            "session resumed with a different particle set"
        );
        self.debug_check_new_ghosts(own, new_ghosts);
        let region = self.bounds.grown(ghost_size);
        self.region = region;
        let (pts, ids) = flatten(own, ghosts);
        let indices: Vec<usize> = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.outcome.certified())
            .map(|(i, _)| i)
            .collect();
        self.cells_reused += (self.records.len() - indices.len()) as u64;
        self.cells_computed += indices.len() as u64;
        let recomputed = compute_records(self, &pts, &ids, &indices, &region, params);
        let mut obs = std::mem::take(&mut self.obs);
        for (i, (record, tested, skipped, ns)) in indices.into_iter().zip(recomputed) {
            self.candidates_tested = self.candidates_tested.saturating_add(tested);
            self.prefilter_skipped = self.prefilter_skipped.saturating_add(skipped);
            obs.note(tested, ns);
            obs.note_slow(ns, own[i].0);
            self.records[i] = record;
        }
        self.obs = obs;
        assemble(self, &pts, &ids, ghosts.len())
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
                let Outcome::Kept(kept) = &record.outcome else {
                    continue;
                };
                if !kept.complete {
                    continue;
                }
                let site = own[i].1;
                for &(gidg, g) in new_ghosts {
                    debug_assert!(
                        g.dist2(site) >= kept.sec2 * (1.0 - 1e-9) - 1e-12,
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

/// Compute the cells at `indices` in parallel; the result vector is in
/// `indices` order (the pool collects chunk results by position). Each
/// element carries the candidate-test count, prefilter-skip count, and
/// wall nanoseconds (0 when tracing is off — the clock is only read under
/// a trace mode) alongside the record.
fn compute_records(
    session: &BlockSession,
    pts: &[Vec3],
    ids: &[u64],
    indices: &[usize],
    region: &Aabb,
    params: &TessParams,
) -> Vec<(CellRecord, u64, u64, u64)> {
    let bounds = session.bounds;
    let grid = CandidateGrid::build(*region, pts, 2.0);
    // Canonical start box for the kernel: a function of the block alone
    // (largest ghost radius the adaptive schedule can reach), never of the
    // current round's radius — see `cell::CellContext::clip_box`.
    let e = bounds.extent();
    let clip_box = bounds.grown(e.x.min(e.y).min(e.z));
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
    indices
        .to_vec()
        .into_par_iter()
        .map(|i| {
            let t0 = if timed { monotonic_ns() } else { 0 };
            let (record, tested, skipped) = compute_one(&ctx, &bounds, params, cull_diam2, i);
            let ns = if timed {
                monotonic_ns().saturating_sub(t0).max(1)
            } else {
                0
            };
            (record, tested, skipped, ns)
        })
        .collect()
}

fn compute_one(
    ctx: &CellContext,
    bounds: &Aabb,
    params: &TessParams,
    cull_diam2: Option<f64>,
    i: usize,
) -> (CellRecord, u64, u64) {
    SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let cell = compute_cell(ctx, ctx.points[i], i as u32, &mut scratch);
        let record = record_of(ctx, bounds, params, cull_diam2, i, &cell);
        let (tested, skipped) = (cell.candidates_tested as u64, cell.prefilter_skipped);
        // Everything the block keeps has been copied out of the polyhedron.
        scratch.recycle(cell.poly);
        (record, tested, skipped)
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
    let mut faces = Vec::with_capacity(poly.faces.len());
    let mut points = Vec::with_capacity(poly.loops.len());
    for f in &poly.faces {
        let nbr = f
            .neighbor
            .map(|cand| ctx.ids[cand as usize])
            .unwrap_or(NO_NEIGHBOR);
        let loop_ = poly.face_verts(f);
        faces.push((nbr, loop_.len() as u32));
        points.extend(loop_.iter().map(|&v| poly.verts[v as usize]));
    }
    CellRecord {
        outcome: Outcome::Kept(Box::new(Kept {
            site_idx: i as u32,
            volume,
            area,
            complete: cell.complete,
            sec2: cell.sec2,
            faces,
            points,
        })),
        needed,
    }
}

/// Assemble the mesh block from the session's records (serial: vertex
/// dedup is a shared hash map). Runs over *all* records each pass, so a
/// resumed round rebuilds stats without double counting.
fn assemble(
    session: &BlockSession,
    pts: &[Vec3],
    ids: &[u64],
    n_ghosts: usize,
) -> (MeshBlock, TessStats, BlockCertification) {
    let mut stats = TessStats {
        sites: session.records.len() as u64,
        ghosts_received: n_ghosts as u64,
        candidates_tested: session.candidates_tested,
        prefilter_skipped: session.prefilter_skipped,
        cells_computed: session.cells_computed,
        cells_reused: session.cells_reused,
        ..Default::default()
    };
    let mut block = MeshBlock::empty(session.gid, session.bounds);
    // An interior Voronoi vertex is a corner of three faces in each of four
    // cells; the benchmark's blocks list 9–11 face corners per distinct
    // vertex (5–9 on small blocks, whose wall vertices are shared less).
    // Sized for 8, the map rarely grows.
    let corners: usize = session
        .records
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Kept(k) => k.points.len(),
            _ => 0,
        })
        .sum();
    let mut vert_index: HashMap<(i64, i64, i64), u32, BuildHasherDefault<FxHasher>> =
        HashMap::with_capacity_and_hasher(corners / 8, Default::default());
    // Quantization for vertex dedup within a block: 1e-6 domain units.
    let quant = |p: Vec3| {
        (
            (p.x * 1e6).round() as i64,
            (p.y * 1e6).round() as i64,
            (p.z * 1e6).round() as i64,
        )
    };

    let mut cert = BlockCertification::default();
    for record in &session.records {
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
                let mut points = kept.points.iter();
                let faces = kept
                    .faces
                    .iter()
                    .map(|&(neighbor, len)| Face {
                        neighbor,
                        verts: points
                            .by_ref()
                            .take(len as usize)
                            .map(|&p| {
                                *vert_index.entry(quant(p)).or_insert_with(|| {
                                    block.verts.push(p);
                                    (block.verts.len() - 1) as u32
                                })
                            })
                            .collect(),
                    })
                    .collect();
                block.cells.push(Cell {
                    site_idx,
                    volume: kept.volume,
                    area: kept.area,
                    complete: kept.complete,
                    faces,
                });
                stats.cells += 1;
            }
        }
    }
    stats.verts = block.verts.len() as u64;
    stats.faces = block.num_faces() as u64;
    (block, stats, cert)
}

/// rustc's FxHash: one rotate, xor and multiply per word. The vertex keys
/// are quantized coordinates this module computes itself, so SipHash's
/// resistance to crafted keys buys nothing here.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
            for f in &c.faces {
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
        let (_, stats, cert) = tessellate_block_certified(0, bounds, &own, &[], 0.5, &params);
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
        let (_, s2, c2) = tessellate_block_certified(0, bounds, &own, &[], 0.5, &keep);
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
            let mut idx: Vec<u32> = c.faces.iter().flat_map(|f| f.verts.clone()).collect();
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
        let (_, s0, cert0, mut session) =
            tessellate_block_session(7, bounds, &own, &g0, r0, &params);
        assert!(cert0.uncertified > 0, "first round must leave work");
        let (inc_block, inc_stats, inc_cert) =
            session.retessellate(&own, &g1, &new_ghosts, r1, &params);

        // One-shot full pass at the large radius.
        let (full_block, full_stats, full_cert) =
            tessellate_block_certified(7, bounds, &own, &g1, r1, &params);

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
}
