//! `service_query` and `service_update`: the resident `MeshService` under
//! closed-loop query clients, alone and beside an open-loop updater.
//!
//! `service_query` does no kernel work once the service is up: the queue,
//! batching, coalescing and the snapshot index do all of it, on a mesh too
//! large for the caches. `service_update` puts writes beside the reads:
//! every update drives the kernel through the resident ranks, rebuilds the
//! snapshot and publishes it while queries keep draining.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use diy::comm::Runtime;
use diy::decomposition::{Assignment, DecompScheme};
use diy::{mem, Encode};
use geometry::{Aabb, Vec3};
use tess::grid::StreamScratch;
use tess::{
    Answer, MeshService, MeshSnapshot, PointHit, Query, ServiceConfig, ServiceStats, TessParams,
    Update,
};

use super::{
    cell_bits, check_volume, decomposition_metrics, evolved_snapshot, finish_trace, mib,
    set_tess_counters, weighted_assignment,
};
use crate::corpus::{partition, wrap_into, QueryStream, Rng};
use crate::report::Outcome;
use crate::span::{self, Recorder};
use crate::{stats, Config, NBLOCKS, NRANKS};

/// Pause of the `service_update` client between windows of requests.
const THINK: Duration = Duration::from_millis(2);
/// Unmeasured lead-in of every phase.
const WARM_S: f64 = 1.0;
/// Open-loop schedule of the updater: one update is due every period,
/// whether or not the previous one has returned.
const UPDATE_PERIOD_S: f64 = 1.5;
/// Radius around a seeded centre within which an update moves every
/// particle, and the most it moves one along an axis.
const UPDATE_RADIUS: f64 = 2.4;
const UPDATE_JITTER: f64 = 0.05;
/// Point answers each phase keeps for the brute-force oracle.
const ORACLE_SAMPLES: usize = 256;
/// Direct snapshot calls per query kind (traced run).
const DIRECT_CALLS: usize = 4000;

struct Shape {
    name: &'static str,
    np: usize,
    /// Requests the closed-loop client keeps in flight. A window of 1
    /// measures the scheduler's wake-up latency, not the service.
    window: usize,
    /// `None`: the client replaces each answered request at once, which
    /// saturates the worker. `Some`: it submits a whole window, waits for
    /// all of it, and pauses — an analysis tool's rhythm, light enough that
    /// the resident ranks are not starved of the two cores.
    think: Option<Duration>,
    updates: bool,
    setup_reps: usize,
}

pub fn run_query(cfg: &Config) -> Outcome {
    run(
        cfg,
        Shape {
            name: "service_query",
            np: cfg.np(),
            window: 32,
            think: None,
            updates: false,
            setup_reps: 2,
        },
    )
}

pub fn run_update(cfg: &Config) -> Outcome {
    run(
        cfg,
        Shape {
            name: "service_update",
            np: 16,
            window: 16,
            think: Some(THINK),
            updates: true,
            setup_reps: 3,
        },
    )
}

struct Setup {
    svc: MeshService,
    particles: Vec<(u64, Vec3)>,
    total_s: f64,
    spawn_s: f64,
    step_s: f64,
}

/// Evolve the snapshot and bring the service up on it.
fn set_up(cfg: &Config, np: usize) -> Setup {
    let t0 = Instant::now();
    let (particles, step_s) = evolved_snapshot(cfg, np);
    let t1 = Instant::now();
    let svc = MeshService::spawn(
        Aabb::cube(np as f64),
        [true; 3],
        &particles,
        ServiceConfig::new(NRANKS, NBLOCKS)
            .with_workers(1)
            .with_decomp(DecompScheme::Regular),
    );
    Setup {
        svc,
        particles,
        total_s: t0.elapsed().as_secs_f64(),
        spawn_s: t1.elapsed().as_secs_f64(),
        step_s,
    }
}

/// A point answer kept for the oracle.
struct Sampled {
    query: Vec3,
    epoch: u64,
    hit: Option<PointHit>,
}

#[derive(Default)]
struct ClientLog {
    /// `(completed at, latency)`, seconds, for answers inside the window.
    samples: Vec<(f64, f64)>,
    oracle: Vec<Sampled>,
    submitted: u64,
    refused: u64,
    wrong_epoch: u64,
}

/// The closed-loop client: keeps `shape.window` submissions in flight and
/// waits for the oldest. Latency is client-side, submit to `wait`
/// returning; answers that complete in `[from, until]` (seconds since
/// `start`) are the measured ones.
fn client(
    svc: &MeshService,
    shape: &Shape,
    stream: &mut QueryStream,
    rec: &mut Recorder,
    start: Instant,
    from: f64,
    until: f64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut inflight: VecDeque<(Instant, tess::Pending, Query)> =
        VecDeque::with_capacity(shape.window);
    let mut last_epoch = 0;
    let mut open = true;
    rec.open(span::ROOT, 0);
    loop {
        open = open && start.elapsed().as_secs_f64() < until;
        let refill = match shape.think {
            None => true,
            Some(pause) => {
                if inflight.is_empty() && open {
                    rec.scope(span::L_THINK, log.submitted, || std::thread::sleep(pause));
                }
                inflight.is_empty()
            }
        };
        while open && refill && inflight.len() < shape.window {
            let q = stream.next().expect("the stream is endless");
            let t = Instant::now();
            rec.open(span::L_SERVICE, log.submitted);
            let pending = svc.submit(q.clone());
            rec.close();
            log.submitted += 1;
            match pending {
                Ok(p) => inflight.push_back((t, p, q)),
                Err(_) => {
                    log.refused += 1;
                    open = false;
                }
            }
        }
        let Some((t, pending, q)) = inflight.pop_front() else {
            break;
        };
        rec.open(span::L_SERVICE, pending.id);
        let resp = pending.wait();
        rec.close();
        let latency = t.elapsed().as_secs_f64();
        let done = start.elapsed().as_secs_f64();
        if resp.epoch < last_epoch {
            log.wrong_epoch += 1;
        }
        last_epoch = resp.epoch;
        if done < from || done > until {
            continue;
        }
        log.samples.push((done, latency));
        if let (Query::Point(p), Answer::Point(hit)) = (&q, &resp.answer) {
            if log.oracle.len() < ORACLE_SAMPLES {
                log.oracle.push(Sampled {
                    query: *p,
                    epoch: resp.epoch,
                    hit: *hit,
                });
            }
        }
    }
    rec.close();
    log
}

#[derive(Default)]
struct UpdateLog {
    /// Due instant → `update` returned with the epoch published.
    latency_s: Vec<f64>,
    /// How late after its due instant each update was issued.
    lateness_s: Vec<f64>,
    tess_s: Vec<f64>,
    bad_epochs: u64,
}

/// The open-loop updater: `n` deltas, the `k`-th due `k` periods after
/// `first_due`. Each jitters every particle near a seeded centre.
/// `history[e - 1]` is the particle set epoch `e` was built from.
fn updater(
    svc: &MeshService,
    rng: &mut Rng,
    history: &mut Vec<Vec<(u64, Vec3)>>,
    side: f64,
    start: Instant,
    first_due: f64,
    n: usize,
) -> UpdateLog {
    let mut log = UpdateLog::default();
    let domain = Aabb::cube(side);
    for k in 0..n {
        let mut next = history.last().expect("epoch 1 is recorded").clone();
        let centre = rng.point_in(&domain);
        let mut upserts = Vec::new();
        for (id, p) in next.iter_mut() {
            if domain.periodic_dist(centre, *p) <= UPDATE_RADIUS {
                let j = Vec3::new(
                    rng.range(-UPDATE_JITTER, UPDATE_JITTER),
                    rng.range(-UPDATE_JITTER, UPDATE_JITTER),
                    rng.range(-UPDATE_JITTER, UPDATE_JITTER),
                );
                *p = wrap_into(side, *p + j);
                upserts.push((*id, *p));
            }
        }
        let due = first_due + k as f64 * UPDATE_PERIOD_S;
        let now = start.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        log.lateness_s.push(start.elapsed().as_secs_f64() - due);
        let report = svc.update(Update::Delta {
            upserts,
            removes: Vec::new(),
        });
        log.latency_s.push(start.elapsed().as_secs_f64() - due);
        log.tess_s.push(report.tess_wall_s);
        if report.epoch != history.len() as u64 + 1 || report.particles != next.len() as u64 {
            log.bad_epochs += 1;
        }
        history.push(next);
    }
    log
}

struct Phase {
    client: ClientLog,
    updates: UpdateLog,
    /// Length of the measured window.
    window_s: f64,
    before: ServiceStats,
    after: ServiceStats,
    rec: Recorder,
}

impl Phase {
    fn latencies_us(&self) -> Vec<f64> {
        self.client.samples.iter().map(|&(_, l)| l * 1e6).collect()
    }

    fn rps(&self) -> f64 {
        self.client.samples.len() as f64 / self.window_s
    }
}

/// One measured phase: the client runs a lead-in of [`WARM_S`] and then a
/// window of `window_s`; with `updates > 0` the updater's first update is
/// due when the window opens. The query stream continues from phase to
/// phase.
#[allow(clippy::too_many_arguments)]
fn phase(
    svc: &MeshService,
    shape: &Shape,
    stream: &mut QueryStream,
    side: f64,
    window_s: f64,
    updates: usize,
    rng: &mut Rng,
    history: &mut Vec<Vec<(u64, Vec3)>>,
    traced: bool,
) -> Phase {
    let before = svc.stats();
    let start = Instant::now();
    let until = WARM_S + window_s;
    let mut rec = Recorder::new(traced, 0, start);
    let (client, update_log) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| client(svc, shape, stream, &mut rec, start, WARM_S, until));
        let update_log = if updates > 0 {
            updater(svc, rng, history, side, start, WARM_S, updates)
        } else {
            UpdateLog::default()
        };
        (handle.join().expect("client thread panicked"), update_log)
    });
    Phase {
        client,
        updates: update_log,
        window_s,
        before,
        after: svc.stats(),
        rec,
    }
}

/// Exact nearest seed by brute force under the minimum-image metric; ties
/// go to the smallest id, as the service breaks them.
fn brute_nearest(particles: &[(u64, Vec3)], domain: &Aabb, q: Vec3) -> (u64, f64) {
    let mut best = (u64::MAX, f64::INFINITY);
    for &(id, p) in particles {
        let d2 = domain.min_image(q, p).norm2();
        if d2 < best.1 || (d2 == best.1 && id < best.0) {
            best = (id, d2);
        }
    }
    best
}

/// Mean seconds of `f` over `inputs`.
fn mean_cost<T, R>(inputs: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let t0 = Instant::now();
    for x in inputs {
        std::hint::black_box(f(std::hint::black_box(x)));
    }
    t0.elapsed().as_secs_f64() / inputs.len().max(1) as f64
}

/// Cost of answering each query kind directly against the snapshot, on
/// one thread with no queue in the way: `(point, box, region)` seconds.
/// Boxes and regions scan the whole mesh, so a tenth as many suffice.
fn direct_costs(snap: &MeshSnapshot, seed: u64, side: f64) -> (f64, f64, f64) {
    let (mut points, mut boxes, mut regions) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = QueryStream::new(seed, side);
    while points.len() < DIRECT_CALLS
        || boxes.len() < DIRECT_CALLS / 10
        || regions.len() < DIRECT_CALLS / 10
    {
        match stream.next().expect("the stream is endless") {
            Query::Point(p) => points.push(p),
            Query::BoxCells(b) => boxes.push(b),
            Query::Region(b) => regions.push(b),
        }
    }
    points.truncate(DIRECT_CALLS);
    boxes.truncate(DIRECT_CALLS / 10);
    regions.truncate(DIRECT_CALLS / 10);
    let mut scratch = StreamScratch::default();
    (
        mean_cost(&points, |&p| snap.lookup_point(p, &mut scratch)),
        mean_cost(&boxes, |&b| snap.box_cells(b)),
        mean_cost(&regions, |&b| snap.region_summary(b)),
    )
}

fn run(cfg: &Config, shape: Shape) -> Outcome {
    let mut out = Outcome::new(shape.name);
    let side = shape.np as f64;
    let domain = Aabb::cube(side);

    let mut setup_s = Vec::new();
    let mut spawn_s = Vec::new();
    let mut up: Option<Setup> = None;
    for _ in 0..shape.setup_reps {
        // one resident service at a time: dropping it shuts it down
        drop(up.take());
        let s = set_up(cfg, shape.np);
        setup_s.push(s.total_s);
        spawn_s.push(s.spawn_s);
        up = Some(s);
    }
    let Setup {
        svc,
        particles,
        step_s,
        ..
    } = up.expect("set up at least once");
    let first = svc.snapshot();

    // The measured phase: the whole of it untraced, or — in a traced run —
    // an untraced half and then a traced half, so that the cost of tracing
    // is a ratio within one invocation.
    let mut rng = Rng::new(cfg.seed ^ 0x0DD5_EED5_0000_0003);
    let mut stream = QueryStream::new(cfg.seed, side);
    let mut history = vec![particles];
    mem::reset_peak();
    let mut run_phase = |share: f64, traced: bool| {
        let seconds = cfg.seconds * share;
        let (updates, window_s) = if !shape.updates {
            (0, seconds)
        } else {
            let n = if cfg.quick {
                1
            } else {
                ((seconds / UPDATE_PERIOD_S).floor() as usize).max(1)
            };
            (n, n as f64 * UPDATE_PERIOD_S)
        };
        phase(
            &svc,
            &shape,
            &mut stream,
            side,
            window_s,
            updates,
            &mut rng,
            &mut history,
            traced,
        )
    };
    let (plain, traced) = if cfg.trace {
        (run_phase(0.5, false), Some(run_phase(0.5, true)))
    } else {
        (run_phase(1.0, false), None)
    };
    let peak_live = mem::stats().peak_live_bytes;
    let last = svc.snapshot();
    let final_stats = svc.shutdown();

    // end-to-end numbers, from the untraced phase
    let lat = plain.latencies_us();
    if lat.is_empty() {
        out.check(
            "queries answered",
            false,
            "no answer inside the window".into(),
        );
        return out;
    }
    let (op_p50_ms, op_tail_ms, tail_p, op_n) = if shape.updates {
        let ms: Vec<f64> = plain.updates.latency_s.iter().map(|s| s * 1e3).collect();
        let (t, p) = stats::tail(&ms);
        (stats::median(&ms), t, p, ms.len())
    } else {
        let (t, p) = stats::tail(&lat);
        (stats::median(&lat) / 1e3, t / 1e3, p, lat.len())
    };
    out.set("setup_s", stats::median(&setup_s));
    out.set("op_p50_ms", op_p50_ms);
    out.set("op_tail_ms", op_tail_ms);
    out.set("items_per_s", plain.rps());
    out.set("peak_mem_mb", mib(peak_live));
    // what the published mesh takes encoded, as the file workloads count it
    // (heap per cell steps by 1.4 % when a vector's capacity doubles)
    let encoded: usize = last.blocks.values().map(|b| b.to_bytes().len()).sum();
    out.set(
        "mesh_bytes_per_cell",
        encoded as f64 / last.total_cells as f64,
    );
    out.note(format!(
        "1 closed-loop client × window {}{}, {:.1} s window after {WARM_S} s lead-in: \
         {} answers, query p50 {:.1} us; operation = {} ({op_n} samples, tail = p{:.0}); \
         {} setups",
        shape.window,
        shape
            .think
            .map_or(String::new(), |t| format!(" with {t:?} between windows")),
        plain.window_s,
        lat.len(),
        stats::median(&lat),
        if shape.updates { "update" } else { "query" },
        tail_p * 100.0,
        setup_s.len()
    ));
    {
        let mut per_s = vec![0u32; plain.window_s.ceil() as usize + 1];
        for &(done, _) in &plain.client.samples {
            per_s[(done - WARM_S).max(0.0) as usize] += 1;
        }
        out.note(format!("answers per second of the window: {per_s:?}"));
    }
    if shape.updates {
        out.note(format!(
            "open loop: {} updates, one due every {UPDATE_PERIOD_S} s, issued {:.2} ms late \
             (median); latencies {:.0?} ms",
            plain.updates.latency_s.len(),
            stats::median(&plain.updates.lateness_s) * 1e3,
            plain
                .updates
                .latency_s
                .iter()
                .map(|s| s * 1e3)
                .collect::<Vec<_>>()
        ));
    }

    // operations and checks
    let mut refused = 0;
    let mut wrong_epoch = 0;
    let mut mismatches = 0;
    let mut sampled = 0;
    for p in std::iter::once(&plain).chain(traced.as_ref()) {
        out.attempted += p.client.submitted;
        refused += p.client.refused;
        wrong_epoch += p.client.wrong_epoch + p.updates.bad_epochs;
        for s in &p.client.oracle {
            sampled += 1;
            let Some(at_epoch) = history.get(s.epoch as usize - 1) else {
                wrong_epoch += 1;
                continue;
            };
            let (id, d2) = brute_nearest(at_epoch, &domain, s.query);
            // a different id is right only on an exact distance tie
            let ok = s
                .hit
                .is_some_and(|h| h.site_id == id || (h.dist2 - d2).abs() <= 1e-12 * d2.max(1e-300));
            if !ok {
                mismatches += 1;
            }
        }
    }
    out.failed = refused + wrong_epoch + mismatches;
    out.check(
        "point answers equal the brute-force nearest seed",
        mismatches == 0 && sampled > 0,
        format!("{sampled} sampled, {mismatches} differ"),
    );
    out.check(
        "every accepted request was answered",
        final_stats.enqueued == final_stats.answered && final_stats.rejected == refused,
        format!(
            "{} enqueued, {} answered, {} rejected",
            final_stats.enqueued, final_stats.answered, final_stats.rejected
        ),
    );
    out.check(
        "epochs are monotone",
        wrong_epoch == 0 && last.epoch == history.len() as u64,
        format!(
            "{wrong_epoch} out of order; final epoch {} after {} updates",
            last.epoch,
            history.len() - 1
        ),
    );
    check_volume(
        &mut out,
        "published mesh",
        &last.stats,
        last.total_volume,
        &domain,
    );
    if shape.updates {
        let final_particles = history.last().expect("epoch 1 is recorded");
        let scratch_mesh = Runtime::run(NRANKS, |world| {
            let asn = Assignment::new(NBLOCKS, NRANKS);
            let local = partition(final_particles, &last.dec, &asn, world.rank());
            tess::tessellate(world, &last.dec, &asn, &local, &TessParams::default()).blocks
        });
        let same = cell_bits(scratch_mesh.iter().flat_map(|m| m.values()))
            == cell_bits(last.blocks.values());
        out.check(
            "final snapshot equals a from-scratch tessellation",
            same,
            format!("{} cells, bit for bit", last.total_cells),
        );
    }

    if let Some(traced) = traced {
        let tlat = traced.latencies_us();
        out.set("trace.overhead_ratio", plain.rps() / traced.rps());
        out.set("hacc.step_ms", step_s * 1e3);
        out.set("hacc.steps", super::deck(cfg, shape.np).nsteps as f64);
        set_tess_counters(&mut out, &first.stats);
        let positions: Vec<Vec3> = history[0].iter().map(|&(_, p)| p).collect();
        let asn = weighted_assignment(&first.dec, &positions);
        decomposition_metrics(&mut out, DecompScheme::Regular, domain, &asn, &positions);
        out.set("mem.peak_live_mb", mib(peak_live));
        out.set("service.spawn_s", stats::median(&spawn_s));
        let (point_s, box_s, region_s) = direct_costs(&last, cfg.seed, side);
        out.set("service.answer_point_ns", point_s * 1e9);
        out.set("service.answer_box_us", box_s * 1e6);
        out.set("service.answer_region_us", region_s * 1e6);
        let p50 = stats::median(&tlat);
        out.set("service.query_p50_us", p50);
        out.set("service.query_p99_us", stats::percentile(&tlat, 0.99));
        out.set("service.queue_overhead_us", p50 - point_s * 1e6);
        let answered = traced.after.answered - traced.before.answered;
        let batches = traced.after.batches - traced.before.batches;
        let coalesced = traced.after.coalesced - traced.before.coalesced;
        out.set(
            "service.batch_size_mean",
            answered as f64 / batches.max(1) as f64,
        );
        out.set(
            "service.coalesce_ratio",
            coalesced as f64 / answered.max(1) as f64,
        );
        out.set("service.epochs", final_stats.epochs_published as f64);
        if shape.updates {
            let u = &traced.updates;
            let ms = |v: &[f64]| stats::median(v) * 1e3;
            out.set("service.update_tess_ms", ms(&u.tess_s));
            let publish: Vec<f64> = u
                .latency_s
                .iter()
                .zip(&u.lateness_s)
                .zip(&u.tess_s)
                .map(|((l, late), t)| l - late - t)
                .collect();
            out.set("service.publish_ms", ms(&publish));
            out.set("service.update_lateness_ms", ms(&u.lateness_s));
        }
        finish_trace(cfg, &mut out, &span::merge(vec![traced.rec]), 0.0);
    }
    out
}
