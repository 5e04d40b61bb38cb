//! `post_voids`: void finding on a mesh that is already on disk. Each
//! iteration reads the file in parallel, labels connected components of
//! large cells, and computes the Minkowski functionals of the largest —
//! only `diy::io`/`codec` decode and `postprocess` work, reads beside
//! `insitu_stream`'s writes. The file was written moments before, so reads
//! come from the page cache: real disk is not measured.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;
use std::time::Instant;

use diy::comm::Runtime;
use diy::decomposition::{Assignment, Decomposition};
use diy::mem;
use geometry::{Aabb, Vec3};
use hacc::Simulation;
use postprocess::components::{label_components_parallel, label_components_serial, Components};
use postprocess::minkowski::minkowski_functionals;
use tess::{MeshBlock, TessParams, TessStats};

use super::{
    barrier_timed, check_volume, deck, decomposition_metrics, finish_trace, local_of, mib,
    set_input, set_output, set_tess_counters, volume_sum, REL_TOL,
};
use crate::report::Outcome;
use crate::span::{self, Recorder};
use crate::{stats, Config, NBLOCKS, NRANKS};

const SETUP_REPS: usize = 2;
/// Cells at least this large (the mean cell volume) are void candidates.
const MIN_VOLUME: f64 = 1.0;
/// Components whose Minkowski functionals are computed, largest first.
const LARGEST: usize = 8;

struct Written {
    dec: Decomposition,
    stats: TessStats,
    volume: f64,
    file_bytes: u64,
    step_s: f64,
    write_s: f64,
    positions: Vec<Vec3>,
}

/// Evolve the deck, tessellate the final state, write the full mesh.
fn set_up(cfg: &Config, path: &Path) -> io::Result<Written> {
    let params = deck(cfg, cfg.np());
    let ranks = Runtime::run(NRANKS, |world| {
        let mut sim = Simulation::init(world, params, NBLOCKS);
        let ((), sim_s) = barrier_timed(world, |w| sim.run_steps(w, params.nsteps));
        let local = local_of(&sim);
        let r = tess::tessellate(world, &sim.dec, &sim.asn, &local, &TessParams::default());
        let (bytes, write_s) =
            barrier_timed(world, |w| tess::io::write_tessellation(w, path, &r.blocks));
        let positions: Vec<Vec3> = local.values().flatten().map(|&(_, p)| p).collect();
        bytes.map(|file_bytes| Written {
            dec: sim.dec.clone(),
            stats: world.all_reduce(r.stats, TessStats::merge),
            volume: world.all_reduce(volume_sum(r.blocks.values()), |a, b| a + b),
            file_bytes,
            step_s: sim_s / params.nsteps as f64,
            write_s,
            positions,
        })
    });
    let mut ranks: Vec<Written> = ranks.into_iter().collect::<io::Result<_>>()?;
    let rest: Vec<Vec3> = ranks.drain(1..).flat_map(|w| w.positions).collect();
    let mut first = ranks.pop().expect("rank 0");
    first.positions.extend(rest);
    Ok(first)
}

/// What one read → label → Minkowski iteration produced and took.
struct Iteration {
    wall_s: f64,
    read_s: f64,
    label_s: f64,
    minkowski_s: f64,
    blocks: Vec<MeshBlock>,
    components: Components,
    /// `(label, V0)` of the largest components.
    largest: Vec<(u64, f64)>,
}

fn iterate(
    path: &Path,
    dec: &Decomposition,
    domain: &Aabb,
    traced: bool,
    epoch: Instant,
    n: u64,
    recorders: &mut Vec<Recorder>,
) -> io::Result<Iteration> {
    let t0 = Instant::now();
    let ranks = Runtime::run(NRANKS, |world| {
        let mut rec = Recorder::new(traced, world.rank() as u32, epoch);
        rec.open(span::ROOT, n);
        let asn = Assignment::new(NBLOCKS, NRANKS);
        let t = Instant::now();
        let blocks = rec.scope(span::L_IO, n, || {
            tess::io::read_tessellation_parallel(world, path)
        });
        let read_s = t.elapsed().as_secs_f64();
        rec.scope(span::L_COMM, n, || world.barrier());
        // a failed read fails on every rank alike: the file is shared
        let local: BTreeMap<u64, MeshBlock> = blocks
            .unwrap_or_default()
            .into_iter()
            .map(|b| (b.gid, b))
            .collect();
        let t = Instant::now();
        let comps = rec.scope(span::L_POST, n, || {
            label_components_parallel(world, dec, &asn, &local, MIN_VOLUME)
        });
        let label_s = t.elapsed().as_secs_f64();
        rec.close();
        (local, comps, read_s, label_s, rec)
    });
    let mut blocks = Vec::new();
    let mut components = Components::default();
    let (mut read_s, mut label_s) = (0.0f64, 0.0f64);
    for (local, comps, r_s, l_s, rec) in ranks {
        recorders.push(rec);
        blocks.extend(local.into_values());
        components.labels.extend(comps.labels);
        components.summaries = comps.summaries;
        read_s = read_s.max(r_s);
        label_s = label_s.max(l_s);
    }
    // the functionals need every block of a component, so they are
    // computed here, on the merged mesh, by the thread that joined the ranks
    if blocks.len() != NBLOCKS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} of {NBLOCKS} blocks read from {}",
                blocks.len(),
                path.display()
            ),
        ));
    }
    let mut main = Recorder::new(traced, NRANKS as u32, epoch);
    main.open(span::ROOT, n);
    let t = Instant::now();
    let largest = main.scope(span::L_POST, n, || {
        components
            .by_volume()
            .into_iter()
            .take(LARGEST)
            .map(|(label, _)| {
                let sites: HashSet<u64> = components
                    .labels
                    .iter()
                    .filter(|&(_, &l)| l == label)
                    .map(|(&s, _)| s)
                    .collect();
                let m = minkowski_functionals(&blocks, &sites, domain);
                (label, m.v0_volume)
            })
            .collect()
    });
    let minkowski_s = t.elapsed().as_secs_f64();
    main.close();
    recorders.push(main);
    Ok(Iteration {
        wall_s: t0.elapsed().as_secs_f64(),
        read_s,
        label_s,
        minkowski_s,
        blocks,
        components,
        largest,
    })
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new("post_voids");
    let path = cfg.out_file("post_voids", "tess");
    let domain = Aabb::cube(cfg.np() as f64);

    let mut setup_s = Vec::new();
    let mut written = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        match set_up(cfg, &path) {
            Ok(w) => written = Some(w),
            Err(e) => {
                out.check("mesh written", false, e.to_string());
                return out;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let w = written.expect("set up at least once");

    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = Vec::new();
    mem::reset_peak();
    let phase = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    loop {
        out.attempted += 1;
        let n = out.attempted;
        // a traced run records every other iteration, so that the cost of
        // recording is a ratio within one invocation
        let traced = cfg.trace && n.is_multiple_of(2);
        match iterate(&path, &w.dec, &domain, traced, epoch, n, &mut recorders) {
            Ok(it) => {
                // keep only the last mesh: one resident copy, as a user's loop would
                if let Some(prev) = iterations.last_mut() {
                    prev.blocks = Vec::new();
                }
                iterations.push(it);
            }
            Err(e) => {
                out.check("mesh read back", false, e.to_string());
                break;
            }
        }
        let one_of_each = !cfg.trace || n >= 2;
        if one_of_each && (cfg.quick || phase.elapsed().as_secs_f64() >= cfg.seconds) {
            break;
        }
    }
    let peak_live = mem::stats().peak_live_bytes;
    out.failed += w.stats.incomplete;
    let Some(last) = iterations.last() else {
        return out;
    };

    let walls: Vec<f64> = iterations.iter().map(|i| i.wall_s * 1e3).collect();
    let (tail, tail_p) = stats::tail(&walls);
    let wall_s = stats::median(&walls) / 1e3;
    out.set("setup_s", stats::median(&setup_s));
    out.set("op_p50_ms", wall_s * 1e3);
    out.set("op_tail_ms", tail);
    out.set("items_per_s", w.stats.cells as f64 / wall_s);
    out.set("peak_mem_mb", mib(peak_live));
    out.set(
        "mesh_bytes_per_cell",
        w.file_bytes as f64 / w.stats.cells as f64,
    );
    out.note(format!(
        "{} iterations (tail = p{:.0}) over a {:.1} MB file read from the page cache; \
         {} components, the largest {LARGEST} measured; {} setups",
        walls.len(),
        tail_p * 100.0,
        w.file_bytes as f64 / 1e6,
        last.components.num_components(),
        setup_s.len()
    ));

    check_volume(&mut out, "written mesh", &w.stats, w.volume, &domain);
    let serial = label_components_serial(&last.blocks, MIN_VOLUME);
    let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs());
    let same = serial.summaries.len() == last.components.summaries.len()
        && serial.summaries.iter().all(|(l, s)| {
            last.components
                .summaries
                .get(l)
                .is_some_and(|p| p.cells == s.cells && close(p.volume, s.volume))
        })
        && serial.labels == last.components.labels;
    out.check(
        "parallel labels equal the serial union-find",
        same,
        format!("{} components", serial.summaries.len()),
    );
    let v0_ok = last
        .largest
        .iter()
        .all(|&(l, v0)| close(v0, last.components.summaries[&l].volume));
    out.check(
        "Minkowski V0 equals the component volume",
        v0_ok && !last.largest.is_empty(),
        format!("{} components", last.largest.len()),
    );

    if cfg.trace {
        let med =
            |f: fn(&Iteration) -> f64| stats::median(&iterations.iter().map(f).collect::<Vec<_>>());
        set_input(&mut out, w.file_bytes, med(|i| i.read_s));
        out.set("post.label_s", med(|i| i.label_s));
        out.set("post.minkowski_s", med(|i| i.minkowski_s));
        out.set("post.components", last.components.num_components() as f64);
        set_output(&mut out, w.file_bytes, w.write_s);
        out.set("hacc.step_ms", w.step_s * 1e3);
        out.set("hacc.steps", deck(cfg, cfg.np()).nsteps as f64);
        set_tess_counters(&mut out, &w.stats);
        let asn = Assignment::new(NBLOCKS, NRANKS);
        decomposition_metrics(
            &mut out,
            diy::decomposition::DecompScheme::Regular,
            domain,
            &asn,
            &w.positions,
        );
        out.set("mem.peak_live_mb", mib(peak_live));
        let walls_of = |traced: bool| -> Vec<f64> {
            iterations
                .iter()
                .enumerate()
                .filter(|(i, _)| (i % 2 == 1) == traced)
                .map(|(_, it)| it.wall_s)
                .collect()
        };
        let traced_wall_s = stats::median(&walls_of(true));
        out.set(
            "trace.overhead_ratio",
            traced_wall_s / stats::median(&walls_of(false)),
        );
        let spans = span::merge(recorders);
        // thread start, join and the merge of the ranks' blocks sit between
        // the rank roots and the main thread's: count them as untiled
        let rooted = |ranks: bool| -> f64 {
            let per_iteration: Vec<f64> = iterations
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 1)
                .map(|(i, _)| {
                    spans
                        .iter()
                        .filter(|s| s.name == span::ROOT && s.id == i as u64 + 1)
                        .filter(|s| ((s.tid as usize) < NRANKS) == ranks)
                        .map(|s| s.dur_ns() as f64 * 1e-9)
                        .fold(0.0, f64::max)
                })
                .collect();
            stats::median(&per_iteration)
        };
        let unrooted = 1.0 - (rooted(true) + rooted(false)) / traced_wall_s;
        finish_trace(cfg, &mut out, &spans, unrooted);
    }
    out
}
