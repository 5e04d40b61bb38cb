//! Tessellation drivers: distributed (in-situ) and standalone (serial).

use std::collections::BTreeMap;

use diy::comm::{Runtime, World};
use diy::decomposition::{Assignment, Decomposition};
use diy::exchange::NeighborExchange;
use diy::metrics::MetricsHandle;
use diy::trace::{trace_mode, TraceMode};
use geometry::{Aabb, Vec3};

use crate::block::{
    tessellate_block_session, BlockPass, BlockSession, CellCarry, CellObs, MovedSet, PrevBlock,
};
use crate::ghost::{exchange_round, sort_ghosts, GhostParticle};
use crate::model::MeshBlock;
use crate::params::{GhostSpec, TessParams, AUTO_GHOST_FACTOR};
use crate::stats::TessStats;

/// Phase span covering ghost resolution + particle exchange (see
/// [`diy::metrics`]).
pub const PHASE_GHOST_EXCHANGE: &str = "ghost_exchange";
/// Phase span covering the local Voronoi computation.
pub const PHASE_VORONOI: &str = "voronoi";
/// Phase span covering the collective tessellation write
/// ([`crate::io::write_tessellation`]).
pub const PHASE_OUTPUT: &str = "output";

/// Histogram: candidate tests per computed cell (always recorded).
pub const HIST_CANDIDATES: &str = "tess.candidates_per_cell";
/// Histogram: wall nanoseconds per computed cell (tracing only).
pub const HIST_CELL_COMPUTE_NS: &str = "tess.cell_compute_ns";
/// Histogram: ghost radius requested per owned block per ghost round (the
/// fixed specs' one round included).
pub const HIST_GHOST_REQUEST_RADIUS: &str = "tess.ghost_request_radius";
/// Histogram: input particles per owned block (one sample per block, so
/// the merged histogram's max/mean is the block-level load imbalance).
pub const HIST_BLOCK_PARTICLES: &str = "tess.block_particles";
/// Histogram: input particles per rank (one sample per rank; max/mean
/// across the merged report is the rank-level particle imbalance).
pub const HIST_RANK_PARTICLES: &str = "tess.rank_particles";
/// Histogram: cells produced per rank (max/mean = cell imbalance).
pub const HIST_RANK_CELLS: &str = "tess.rank_cells";

/// Record the decomposition balance counters for this rank's share of the
/// input: one `tess.block_particles` sample per owned block and one
/// `tess.rank_particles` sample for the rank total.
fn record_balance(metrics: &MetricsHandle, local: &BTreeMap<u64, Vec<(u64, Vec3)>>) {
    let mut total = 0usize;
    for own in local.values() {
        metrics.observe(HIST_BLOCK_PARTICLES, own.len() as f64);
        total += own.len();
    }
    metrics.observe(HIST_RANK_PARTICLES, total as f64);
}

/// Fold one block's per-cell observability into the rank metrics.
fn record_block_obs(metrics: &MetricsHandle, gid: u64, obs: CellObs) {
    metrics.merge_hist(HIST_CANDIDATES, &obs.candidates);
    if obs.compute_ns.n() > 0 {
        metrics.merge_hist(HIST_CELL_COMPUTE_NS, &obs.compute_ns);
    }
    metrics.note_slow_cells(gid, &obs.slow);
}

/// Hand pool CPU and (when tracing) pool task events back to the rank
/// span that submitted the work.
fn drain_pool(metrics: &MetricsHandle) {
    metrics.add_external_cpu(rayon::take_pool_cpu_seconds());
    if trace_mode() == TraceMode::Full {
        metrics.add_pool_tasks(
            rayon::take_pool_tasks()
                .into_iter()
                .map(|t| (t.worker, t.start_ns, t.end_ns, t.chunk)),
        );
    }
}

/// Result of one tessellation pass on one rank. Timing lives in the
/// world's metrics under the [`PHASE_GHOST_EXCHANGE`] / [`PHASE_VORONOI`]
/// spans; collect it with [`diy::metrics::collect_report`].
pub struct TessResult {
    /// Tessellated blocks owned by this rank.
    pub blocks: BTreeMap<u64, MeshBlock>,
    /// This rank's counters (merge across ranks for global stats).
    pub stats: TessStats,
    /// The largest ghost radius any block ended up holding (the resolved
    /// size under `GhostSpec::Explicit` / `Auto`).
    pub ghost_used: f64,
}

/// Result of one bounded-memory streaming pass on one rank: the mesh went
/// to disk wave by wave, so only counters come back. Global totals are
/// identical on every rank.
pub struct StreamSummary {
    /// This rank's counters (merge across ranks for global stats).
    pub stats: TessStats,
    /// The largest ghost radius any block ended up holding.
    pub ghost_used: f64,
    /// Blocks written to the file (global).
    pub blocks_written: u64,
    /// Mesh payload bytes in the file, excluding framing (global).
    pub payload_bytes: u64,
    /// Total file bytes (global).
    pub file_bytes: u64,
}

/// Estimated particle spacing: `max over blocks of (block volume / own
/// particles)^{1/3}` (a collective operation — every rank gets the global
/// maximum).
pub fn estimated_spacing(
    world: &mut World,
    dec: &Decomposition,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
) -> f64 {
    let local_max = local
        .iter()
        .map(|(&gid, particles)| {
            let vol = dec.block_bounds(gid).volume();
            let n = particles.len().max(1) as f64;
            (vol / n).powf(1.0 / 3.0)
        })
        .fold(0.0f64, f64::max);
    world.all_reduce(local_max, f64::max)
}

/// Resolve the ghost size: explicit passthrough, or a spacing multiple (a
/// collective operation). For `Adaptive` this is the *initial* radius;
/// [`tessellate`] then grows it per block as needed.
pub fn resolve_ghost(
    world: &mut World,
    dec: &Decomposition,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    spec: GhostSpec,
) -> f64 {
    match spec {
        GhostSpec::Explicit(g) => g,
        GhostSpec::Auto { factor } => factor * estimated_spacing(world, dec, local),
        GhostSpec::Adaptive { initial_factor, .. } => {
            initial_factor * estimated_spacing(world, dec, local)
        }
    }
}

/// The per-block ghost radius schedule. Everything in it derives from
/// collective data (the spec, the spacing estimate, the decomposition), so
/// every rank computes the same schedule and [`next`](Self::next) decides
/// locally — with no communication — whether a block is final.
#[derive(Debug, Clone, Copy)]
struct RadiusSchedule {
    /// The radius every block requests in round 0.
    initial: f64,
    /// `None` under `GhostSpec::Explicit` / `Auto`: the radius never grows,
    /// so every block is final after round 0.
    growth: Option<Growth>,
}

/// Growth limits of [`GhostSpec::Adaptive`].
#[derive(Debug, Clone, Copy)]
struct Growth {
    /// The neighborhood exchange only reaches linked blocks, so a halo
    /// wider than the smallest block extent would silently miss particles.
    /// This is the only place the protocol consults the decomposition
    /// beyond block bounds and links, so it is the same protocol for any
    /// scheme whose blocks tile the domain.
    cap: f64,
    /// Radius of the one fallback round that follows `max_rounds`.
    auto_r: f64,
    max_rounds: usize,
}

impl RadiusSchedule {
    /// Resolve `spec` against this run's particles (collective).
    fn resolve(
        world: &mut World,
        dec: &Decomposition,
        local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
        spec: GhostSpec,
    ) -> Self {
        let GhostSpec::Adaptive {
            initial_factor,
            max_rounds,
        } = spec
        else {
            return RadiusSchedule {
                initial: resolve_ghost(world, dec, local, spec),
                growth: None,
            };
        };
        let cap = dec.min_block_extent();
        assert!(
            cap.is_finite() && cap > 0.0,
            "degenerate decomposition: min block extent {cap}"
        );
        let spacing = estimated_spacing(world, dec, local);
        RadiusSchedule {
            initial: (initial_factor * spacing).min(cap),
            growth: Some(Growth {
                cap,
                auto_r: (AUTO_GHOST_FACTOR * spacing).min(cap),
                max_rounds,
            }),
        }
    }

    /// The radius a block holding `cur` requests after `round` left cells
    /// uncertified that need `need`, or `None` when the block is final:
    /// the radius never grows, it is saturated at the cap (the neighborhood
    /// has no more to give), or the fallback round is spent — what is still
    /// uncertified then is dropped exactly like the fixed modes drop it.
    fn next(&self, round: usize, cur: f64, need: f64) -> Option<f64> {
        let Growth {
            cap,
            auto_r,
            max_rounds,
        } = self.growth?;
        if cur >= cap - 1e-12 {
            return None;
        }
        let next = if round < max_rounds {
            // Grow toward the certification bound, with a geometric floor
            // so near-converged cells cannot stall the loop and a 2x
            // ceiling because `need` is an overestimate: an uncertified
            // cell is still under-clipped, so its security radius shrinks
            // as candidates arrive. Jumping straight to the early bound
            // over-fetches ghosts for the whole block; doubling converges
            // in O(log) rounds while the incremental re-tessellation keeps
            // the extra rounds cheap (only uncertified cells recompute).
            need.max(cur * 1.25).min(cur * 2.0).min(cap)
        } else if round == max_rounds {
            auto_r.max(need).min(cap)
        } else {
            return None;
        };
        (next > cur + 1e-12).then_some(next)
    }
}

/// What the round loop keeps for an owned block until it is final.
#[derive(Default)]
struct Pending<'p> {
    /// Every ghost received so far, in canonical order.
    halo: Vec<GhostParticle>,
    /// The latest pass, resumable: the next round recomputes only the
    /// cells this one could not certify.
    session: Option<BlockSession<'p>>,
}

/// The previous epoch an incremental tessellation reads: the blocks it
/// published, what their kept cells carry, and every position that changed
/// since. Round 0 copies each block's provably unchanged cells from it
/// ([`crate::block::PrevBlock`]).
pub struct PrevEpoch<'a> {
    pub blocks: &'a BTreeMap<u64, MeshBlock>,
    pub carry: &'a BTreeMap<u64, Vec<CellCarry>>,
    pub moved: &'a MovedSet,
}

impl PrevEpoch<'_> {
    fn block(&self, gid: u64) -> Option<PrevBlock<'_>> {
        Some(PrevBlock {
            mesh: self.blocks.get(&gid)?,
            carry: self.carry.get(&gid)?,
            moved: self.moved,
        })
    }
}

/// A block the round loop finished: its gid, mesh and carry.
type Finished = (u64, MeshBlock, Vec<CellCarry>);

/// Wave slots a round runs: the most requested blocks any one rank owns.
/// Derived from the collective request map and the assignment, so every
/// rank arrives at the same count without communicating.
fn wave_slots(request: &BTreeMap<u64, f64>, asn: &Assignment) -> usize {
    let mut per_rank = vec![0usize; asn.nranks];
    for &gid in request.keys() {
        per_rank[asn.rank_of_block(gid)] += 1;
    }
    per_rank.into_iter().max().unwrap_or(0)
}

/// The one tessellation loop. Per round: exchange the delta shell for every
/// block in the collective `request` map, (re-)tessellate exactly those
/// blocks, and hand each one to `sink` the moment it is final — certified,
/// or [`RadiusSchedule::next`] has nothing more to ask for. The rest gather
/// their next requests on every rank. All decisions derive from collective
/// data, so the per-block radius schedule — and therefore every block's
/// ghost set and mesh — is identical at any rank count. `Explicit` / `Auto`
/// ghosts are the same loop: their schedule never grows, so round 0 is the
/// only round and needs no gather.
///
/// A round runs [`wave_slots`] slots and tessellates one owned block per
/// slot; `sink` is called once per slot on every rank — with `None` when
/// the slot's block is not final or this rank has no block left — so it may
/// be collective. Returns this rank's stats and the largest radius held.
/// With `prev`, each block's first pass copies the cells the previous epoch
/// proves unchanged and computes only the rest.
fn run_rounds(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
    prev: Option<&PrevEpoch>,
    mut sink: impl FnMut(&mut World, Option<Finished>) -> std::io::Result<()>,
) -> std::io::Result<(TessStats, f64)> {
    // Pool task events are only worth their mutex traffic under full
    // tracing; flip the pool's recording flag to match before any work.
    rayon::set_task_trace(trace_mode() == TraceMode::Full);
    let metrics = world.metrics();
    record_balance(&metrics, local);
    // Canonical start cube half-extent: a function of the *domain*, so
    // certified cell bits cannot depend on which decomposition scheme cut
    // the domain into blocks (see `cell::CellContext::canon_extent`).
    let params = &TessParams {
        canon_extent: Some(params.canon_extent.unwrap_or_else(|| {
            let e = dec.domain.extent();
            e.x.min(e.y).min(e.z)
        })),
        ..*params
    };
    let (ex, schedule) = {
        let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
        (
            NeighborExchange::new(dec, asn),
            RadiusSchedule::resolve(world, dec, local, params.ghost),
        )
    };

    // Halo radius each block holds — global state, identical on all ranks;
    // no entry until the block's first request is served.
    let mut radius: BTreeMap<u64, f64> = BTreeMap::new();
    // Round 0: every block wants the initial radius (no communication
    // needed to agree on that).
    let mut request: BTreeMap<u64, f64> = (0..dec.nblocks() as u64)
        .map(|g| (g, schedule.initial))
        .collect();
    let mut pending: BTreeMap<u64, Pending> =
        local.keys().map(|&g| (g, Pending::default())).collect();
    let mut stats = TessStats::default();
    let mut rounds = 0u64;

    while !request.is_empty() {
        let round = rounds as usize;
        let mut fresh = {
            let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
            let _round_span = metrics.phase(format!("ghost_round:{round}"));
            metrics.mark("ghost_round", rounds);
            let fresh = exchange_round(world, &ex, local, &radius, &request, round);
            for (&g, &r) in &request {
                // Radius distribution over *owned* blocks only: each block
                // is then counted exactly once globally, so the merged
                // histogram is identical at any rank count.
                if local.contains_key(&g) {
                    metrics.observe(HIST_GHOST_REQUEST_RADIUS, r);
                }
                radius.insert(g, r);
            }
            fresh
        };
        rounds += 1;

        let mine: Vec<u64> = request
            .keys()
            .copied()
            .filter(|g| local.contains_key(g))
            .collect();
        let nslots = wave_slots(&request, asn);
        assert!(
            mine.len() <= nslots,
            "rank holds particles for blocks the assignment gives to others"
        );
        let mut my_requests: Vec<(u64, f64)> = Vec::new();
        for slot in 0..nslots {
            let finished = mine.get(slot).and_then(|&gid| {
                let (own, r) = (&local[&gid], radius[&gid]);
                let state = pending.get_mut(&gid).expect("requested block");
                // This round's ghosts join the halo in the block's own slot,
                // so the two copies coexist for one block at a time.
                let new = fresh.remove(&gid).unwrap_or_default();
                {
                    let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
                    state.halo.extend_from_slice(&new);
                    sort_ghosts(&mut state.halo);
                }
                let _span = metrics.phase(PHASE_VORONOI);
                let BlockPass {
                    block,
                    carry,
                    stats: s,
                    cert,
                } = match &mut state.session {
                    Some(session) => session.retessellate(own, &state.halo, &new, r, params),
                    session => {
                        let (pass, fresh_session) = tessellate_block_session(
                            gid,
                            dec.block_bounds(gid),
                            own,
                            &state.halo,
                            r,
                            params,
                            prev.and_then(|p| p.block(gid)),
                        );
                        *session = Some(fresh_session);
                        pass
                    }
                };
                if let Some(session) = &mut state.session {
                    record_block_obs(&metrics, gid, session.take_obs());
                }
                // Credit CPU burned by pool workers on our behalf to this
                // rank's voronoi span (the span only sees the submitting
                // thread's clock).
                drain_pool(&metrics);
                let need =
                    (cert.uncertified > 0 && cert.needed_ghost > 0.0).then_some(cert.needed_ghost);
                match need.and_then(|need| schedule.next(round, r, need)) {
                    Some(next) => {
                        my_requests.push((gid, next));
                        None
                    }
                    None => {
                        // final: free the session and the halo now
                        pending.remove(&gid);
                        stats = stats.merge(s);
                        Some((gid, block, carry))
                    }
                }
            });
            sink(world, finished)?;
        }

        // Next round's request map from every rank's needs (collective, so
        // all ranks agree on who grows and by how much).
        request = match schedule.growth {
            Some(_) => {
                let _span = metrics.phase(PHASE_GHOST_EXCHANGE);
                let gathered: Vec<Vec<(u64, f64)>> = world.all_gather(&my_requests);
                gathered.into_iter().flatten().collect()
            }
            None => BTreeMap::new(),
        };
    }

    stats.ghost_rounds = rounds;
    metrics.observe(HIST_RANK_CELLS, stats.cells as f64);
    let ghost_used = radius.values().fold(0.0f64, |a, &b| a.max(b));
    Ok((stats, ghost_used))
}

/// Distributed (in-situ) tessellation: collective over all ranks of
/// `world`. `local` maps each owned block gid to its original particles
/// `(global id, position)`. Under [`GhostSpec::Adaptive`] the ghost
/// exchange repeats, growing each block's halo until its cells certify.
pub fn tessellate(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
) -> TessResult {
    let mut blocks = BTreeMap::new();
    let (stats, ghost_used) = run_rounds(world, dec, asn, local, params, None, |_, finished| {
        blocks.extend(finished.map(|(gid, block, _)| (gid, block)));
        Ok(())
    })
    .expect("accumulating blocks cannot fail");
    TessResult {
        blocks,
        stats,
        ghost_used,
    }
}

/// [`tessellate`] as the next epoch of `prev`: every block's first pass
/// copies the cells `prev` proves unchanged and runs the kernel on the
/// rest, so the mesh is bit-identical to [`tessellate`]'s. `local`'s
/// particle lists must be sorted by id. Also returns what each block's kept
/// cells carry into the epoch after.
pub fn tessellate_incremental(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
    prev: Option<&PrevEpoch>,
) -> (TessResult, BTreeMap<u64, Vec<CellCarry>>) {
    let (mut blocks, mut carry) = (BTreeMap::new(), BTreeMap::new());
    let (stats, ghost_used) = run_rounds(world, dec, asn, local, params, prev, |_, finished| {
        if let Some((gid, block, c)) = finished {
            blocks.insert(gid, block);
            carry.insert(gid, c);
        }
        Ok(())
    })
    .expect("accumulating blocks cannot fail");
    let result = TessResult {
        blocks,
        stats,
        ghost_used,
    };
    (result, carry)
}

/// Bounded-memory variant of [`tessellate`]: the same loop, but every
/// block is serialized, written through [`crate::io::TessStreamWriter`]
/// and *dropped* the moment it is final instead of accumulating into the
/// merged mesh — one collective write wave per slot of the loop, so peak
/// memory is one block's mesh plus the halos and sessions of blocks still
/// growing, rather than the whole rank's mesh. The file read back with
/// [`crate::io::read_tessellation`] is bit-identical to the accumulated
/// merge — only the residency changes.
pub fn tessellate_streaming(
    world: &mut World,
    dec: &Decomposition,
    asn: &Assignment,
    local: &BTreeMap<u64, Vec<(u64, Vec3)>>,
    params: &TessParams,
    path: &std::path::Path,
) -> std::io::Result<StreamSummary> {
    let mut writer = crate::io::TessStreamWriter::create(world, path)?;
    let (stats, ghost_used) =
        run_rounds(world, dec, asn, local, params, None, |world, finished| {
            let wave: Vec<(u64, &MeshBlock)> =
                finished.iter().map(|(gid, b, _)| (*gid, b)).collect();
            writer.write_wave(world, &wave)?;
            world.metrics().sample_mem_counters();
            Ok(())
        })?;
    let summary = writer.finish(world)?;
    Ok(StreamSummary {
        stats,
        ghost_used,
        blocks_written: summary.blocks,
        payload_bytes: summary.payload_bytes,
        file_bytes: summary.file_bytes,
    })
}

/// Standalone (serial) mode: one block covering the whole `domain`.
/// Periodic dimensions receive mirrored ghost copies of the block's own
/// particles, exactly as the distributed path would.
///
/// ```
/// use geometry::{Aabb, Vec3};
/// use tess::{tessellate_serial, TessParams};
///
/// // a 3×3×3 periodic lattice: every Voronoi cell is a unit cube
/// let particles: Vec<(u64, Vec3)> = (0..27)
///     .map(|i| {
///         let (x, y, z) = (i % 3, (i / 3) % 3, i / 9);
///         (i as u64, Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5))
///     })
///     .collect();
/// let (block, stats) = tessellate_serial(
///     &particles,
///     Aabb::cube(3.0),
///     [true; 3],
///     &TessParams::default().with_ghost(1.5),
/// );
/// assert_eq!(stats.cells, 27);
/// assert!((block.cells.cell(0).volume - 1.0).abs() < 1e-9);
/// ```
pub fn tessellate_serial(
    particles: &[(u64, Vec3)],
    domain: Aabb,
    periodic: [bool; 3],
    params: &TessParams,
) -> (MeshBlock, TessStats) {
    let dec = Decomposition::with_dims(domain, [1, 1, 1], periodic);
    let particles = particles.to_vec();
    let params = *params;
    let mut results = Runtime::run(1, move |world| {
        let asn = Assignment::new(1, 1);
        let local: BTreeMap<u64, Vec<(u64, Vec3)>> =
            [(0u64, particles.clone())].into_iter().collect();
        let r = tessellate(world, &dec, &asn, &local, &params);
        let block = r.blocks.into_values().next().expect("one block");
        (block, r.stats)
    });
    results.remove(0)
}

/// Merge per-rank stats into global stats (collective).
pub fn global_stats(world: &mut World, stats: TessStats) -> TessStats {
    diy::reduce::all_reduce_merge(world, stats, TessStats::merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<(u64, Vec3)> {
        (0..n * n * n)
            .map(|idx| {
                let i = idx % n;
                let j = (idx / n) % n;
                let k = idx / (n * n);
                (
                    idx as u64,
                    Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5),
                )
            })
            .collect()
    }

    fn jittered(n: usize, seed: u64, amp: f64) -> Vec<(u64, Vec3)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        lattice(n)
            .into_iter()
            .map(|(id, p)| {
                let q = p + Vec3::new(
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                    rng.gen_range(-amp..amp),
                );
                let ng = n as f64;
                (
                    id,
                    Vec3::new(q.x.rem_euclid(ng), q.y.rem_euclid(ng), q.z.rem_euclid(ng)),
                )
            })
            .collect()
    }

    #[test]
    fn radius_schedule_decides_growth_and_finality() {
        let adaptive = RadiusSchedule {
            initial: 1.0,
            growth: Some(Growth {
                cap: 8.0,
                auto_r: 5.0,
                max_rounds: 3,
            }),
        };
        let fixed = RadiusSchedule {
            initial: 1.0,
            growth: None,
        };
        // (schedule, round, radius held, radius needed) → next request
        let table = [
            (adaptive, 0, 2.0, 2.01, Some(2.5)), // ×1.25 floor
            (adaptive, 0, 2.0, 3.0, Some(3.0)),  // the bound itself
            (adaptive, 1, 2.0, 7.0, Some(4.0)),  // ×2 ceiling
            (adaptive, 2, 5.0, 20.0, Some(8.0)), // clamped to the cap
            (adaptive, 2, 8.0, 20.0, None),      // saturated at the cap
            (adaptive, 3, 2.0, 3.0, Some(5.0)),  // fallback: the auto radius
            (adaptive, 3, 2.0, 6.0, Some(6.0)),  // … or the bound, if larger
            (adaptive, 3, 2.0, 30.0, Some(8.0)), // … clamped to the cap
            (adaptive, 3, 6.0, 5.5, None),       // fallback would not grow
            (adaptive, 4, 2.0, 3.0, None),       // fallback spent
            (fixed, 0, 1.0, 3.0, None),          // fixed specs never grow
            (fixed, 5, 1.0, 0.5, None),
        ];
        for (schedule, round, cur, need, expect) in table {
            assert_eq!(
                schedule.next(round, cur, need),
                expect,
                "round {round}, holding {cur}, needing {need}"
            );
        }
    }

    #[test]
    fn serial_periodic_lattice_gives_all_unit_cells() {
        let n = 6;
        let particles = lattice(n);
        let params = TessParams::default().with_ghost(2.0);
        let (block, stats) =
            tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        // periodic mirroring completes *every* cell
        assert_eq!(stats.cells, (n * n * n) as u64);
        assert_eq!(stats.incomplete, 0);
        let total: f64 = block.cells.iter().map(|c| c.volume).sum();
        assert!((total - (n * n * n) as f64).abs() < 1e-6, "total {total}");
        for c in &block.cells {
            assert!((c.volume - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cell_volumes_partition_the_periodic_box() {
        // For any particle set, complete periodic Voronoi cells must tile
        // the box: total volume == box volume.
        let n = 5;
        let particles = jittered(n, 3, 0.45);
        let params = TessParams::default().with_ghost(2.5);
        let (block, stats) =
            tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        assert_eq!(stats.cells, (n * n * n) as u64, "all complete");
        let total: f64 = block.cells.iter().map(|c| c.volume).sum();
        let expect = (n * n * n) as f64;
        assert!(
            (total - expect).abs() < 1e-6 * expect,
            "total {total} vs {expect}"
        );
    }

    #[test]
    fn parallel_matches_serial_with_sufficient_ghost() {
        let n = 6;
        let particles = jittered(n, 9, 0.4);
        let domain = Aabb::cube(n as f64);
        let params = TessParams::default().with_ghost(2.5);

        let (serial_block, _) = tessellate_serial(&particles, domain, [true; 3], &params);
        let mut serial_vols: BTreeMap<u64, f64> = BTreeMap::new();
        for c in &serial_block.cells {
            serial_vols.insert(serial_block.site_id_of(c), c.volume);
        }

        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles2 = particles.clone();
        let collected = Runtime::run(4, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles2 {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let r = tessellate(world, &dec, &asn, &local, &params);
            r.blocks
                .values()
                .flat_map(|b| {
                    b.cells
                        .iter()
                        .map(|c| (b.site_id_of(c), c.volume))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        let parallel: BTreeMap<u64, f64> = collected.into_iter().flatten().collect();
        assert_eq!(parallel.len(), serial_vols.len(), "same cell count");
        for (id, v) in &parallel {
            let sv = serial_vols[id];
            assert!((v - sv).abs() < 1e-9, "cell {id}: {v} vs {sv}");
        }
    }

    #[test]
    fn insufficient_ghost_drops_boundary_cells() {
        let n = 6;
        let particles = lattice(n);
        let domain = Aabb::cube(n as f64);
        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles2 = particles.clone();
        let kept = Runtime::run(2, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles2 {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let params = TessParams::default().with_ghost(0.0);
            let r = tessellate(world, &dec, &asn, &local, &params);
            let s = global_stats(world, r.stats);
            (s.cells, s.incomplete)
        });
        let (cells, incomplete) = kept[0];
        assert_eq!(cells + incomplete, (n * n * n) as u64);
        assert!(incomplete > 0, "ghost 0 must lose boundary cells");
    }

    #[test]
    fn auto_ghost_resolves_to_spacing_multiple() {
        let n = 6;
        let particles = lattice(n);
        let domain = Aabb::cube(n as f64);
        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles2 = particles.clone();
        let ghosts = Runtime::run(2, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles2 {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            resolve_ghost(world, &dec, &local, GhostSpec::Auto { factor: 4.0 })
        });
        // mean spacing is 1.0 → ghost 4.0 on every rank
        for g in ghosts {
            assert!((g - 4.0).abs() < 1e-9, "ghost {g}");
        }
    }

    #[test]
    fn adaptive_certifies_everything_and_matches_fixed_output() {
        let n = 6;
        let particles = jittered(n, 9, 0.4);
        let domain = Aabb::cube(n as f64);
        let fixed = TessParams::default().with_ghost(2.5);
        let adaptive = TessParams {
            ghost: GhostSpec::Adaptive {
                initial_factor: 0.75,
                max_rounds: 8,
            },
            ..TessParams::default()
        };
        let (fixed_block, fixed_stats) = tessellate_serial(&particles, domain, [true; 3], &fixed);
        let (ad_block, ad_stats) = tessellate_serial(&particles, domain, [true; 3], &adaptive);
        assert_eq!(ad_stats.incomplete, 0);
        assert_eq!(ad_stats.cells, fixed_stats.cells);
        assert!(
            ad_stats.ghost_rounds >= 1,
            "rounds {}",
            ad_stats.ghost_rounds
        );
        let vols = |b: &MeshBlock| -> BTreeMap<u64, f64> {
            b.cells
                .iter()
                .map(|c| (b.site_id_of(c), c.volume))
                .collect()
        };
        let (fv, av) = (vols(&fixed_block), vols(&ad_block));
        for (id, v) in &av {
            assert!((v - fv[id]).abs() < 1e-9, "cell {id}: {v} vs {}", fv[id]);
        }
    }

    #[test]
    fn adaptive_fallback_rescues_a_tiny_initial_radius() {
        // max_rounds 0: the first adaptive request already falls back to
        // the auto radius, which certifies the whole evolved-like box.
        let n = 6;
        let particles = jittered(n, 21, 0.49);
        let params = TessParams {
            ghost: GhostSpec::Adaptive {
                initial_factor: 0.2,
                max_rounds: 0,
            },
            ..TessParams::default()
        };
        let (_, stats) = tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        assert_eq!(stats.incomplete, 0);
        assert_eq!(stats.cells, (n * n * n) as u64);
        assert!(stats.ghost_rounds <= 2, "rounds {}", stats.ghost_rounds);
    }

    #[test]
    fn adaptive_requests_are_capped_at_the_block_extent() {
        // 2 particles in a 4³ box split into 8 blocks of extent 2: the
        // spacing estimate far exceeds a block, so every radius must clamp
        // to the cap and the loop must still terminate.
        let domain = Aabb::cube(4.0);
        let dec = Decomposition::regular(domain, 8, [true; 3]);
        let particles = vec![
            (0u64, Vec3::new(0.7, 0.7, 0.7)),
            (1u64, Vec3::new(3.1, 3.1, 3.1)),
        ];
        let params = TessParams {
            ghost: GhostSpec::Adaptive {
                initial_factor: 2.5,
                max_rounds: 4,
            },
            keep_incomplete: true,
            ..TessParams::default()
        };
        let out = Runtime::run(2, move |world| {
            let asn = Assignment::new(8, world.nranks());
            let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
                .blocks_of_rank(world.rank())
                .map(|g| (g, Vec::new()))
                .collect();
            for &(id, p) in &particles {
                let gid = dec.block_of_point(p);
                if let Some(v) = local.get_mut(&gid) {
                    v.push((id, p));
                }
            }
            let r = tessellate(world, &dec, &asn, &local, &params);
            (r.ghost_used, global_stats(world, r.stats))
        });
        for (ghost_used, stats) in out {
            assert!(ghost_used <= 2.0 + 1e-12, "ghost {ghost_used}");
            // keep_incomplete retains both cells even though a 2-particle
            // Voronoi diagram cannot certify inside one block
            assert_eq!(stats.cells, 2);
        }
    }

    #[test]
    fn auto_ghost_certifies_everything_on_evolved_like_data() {
        let n = 6;
        let particles = jittered(n, 21, 0.49);
        let params = TessParams::default(); // Auto { factor: 5 }
        let (_, stats) = tessellate_serial(&particles, Aabb::cube(n as f64), [true; 3], &params);
        assert_eq!(stats.incomplete, 0);
        assert_eq!(stats.cells, (n * n * n) as u64);
    }
}
