//! Shared machinery for the per-table/per-figure benchmark harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4). This library holds the common pieces: evolved
//! particle sets, distributed run drivers, timing reduction, and plain-text
//! table output.
//!
//! ## Timing methodology
//!
//! Ranks are threads, usually oversubscribed on far fewer cores than the
//! BG/P partitions the paper uses, so the harnesses report **per-rank
//! thread-CPU time reduced with max across ranks** (the critical path) —
//! see `diy::timing`. Shapes (scaling slopes, component breakdowns) are
//! comparable with the paper; absolute numbers are not.

pub mod corpus;
pub mod history;
pub mod json;

use std::collections::BTreeMap;

use diy::comm::World;
use diy::decomposition::{Assignment, Decomposition};
use geometry::Vec3;
use hacc::{SimParams, Simulation};

/// The paper's small-scale workload: `np³` particles at 1 Mpc/h spacing
/// evolved `nsteps` of 100 total; returns `(id, position)` for all
/// particles (serial convenience; deterministic).
pub fn evolved_particles(np: usize, nsteps: usize) -> Vec<(u64, Vec3)> {
    let params = SimParams::paper_like(np);
    let cosmo = hacc::Cosmology::default();
    let ic = hacc::ic::zeldovich(
        &hacc::ic::IcParams {
            np,
            box_size: params.box_size,
            seed: params.seed,
            delta_rms: params.initial_delta_rms,
            spectrum: params.spectrum,
        },
        &cosmo,
        params.a_init,
    );
    let solver = hacc::PmSolver::new(np, cosmo);
    let mut pos = ic.positions;
    let mut mom = ic.momenta;
    for k in 0..nsteps {
        solver.step(&mut pos, &mut mom, params.a_at(k), params.da_at(k));
    }
    pos.into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p))
        .collect()
}

/// Split a global particle list into the per-block map each rank feeds to
/// `tess::tessellate`.
pub fn partition_particles(
    particles: &[(u64, Vec3)],
    dec: &Decomposition,
    asn: &Assignment,
    rank: usize,
) -> BTreeMap<u64, Vec<(u64, Vec3)>> {
    let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> =
        asn.blocks_of_rank(rank).map(|g| (g, Vec::new())).collect();
    for &(id, p) in particles {
        let gid = dec.block_of_point(p);
        if let Some(v) = local.get_mut(&gid) {
            v.push((id, p));
        }
    }
    local
}

/// Max across ranks (the critical-path reduction for thread-CPU times).
pub fn max_over_ranks(world: &mut World, v: f64) -> f64 {
    world.all_reduce(v, f64::max)
}

/// Cell fingerprint used by the bit-identity oracles: (volume bits, area
/// bits, face neighbors).
pub type CellBits = (u64, u64, Vec<u64>);

/// Flatten merged mesh blocks to a site-id → fingerprint map, asserting
/// each cell is published exactly once.
pub fn mesh_bits(blocks: &BTreeMap<u64, tess::MeshBlock>) -> BTreeMap<u64, CellBits> {
    let mut mesh = BTreeMap::new();
    for b in blocks.values() {
        for c in &b.cells {
            let bits = (
                c.volume.to_bits(),
                c.area.to_bits(),
                c.faces.iter().map(|f| f.neighbor).collect(),
            );
            assert!(
                mesh.insert(b.site_id_of(c), bits).is_none(),
                "cell duplicated"
            );
        }
    }
    mesh
}

/// One arm of the clustered-corpus decomposition A/B (see
/// [`run_decomp_ab`]).
pub struct DecompAbArm {
    pub mesh: BTreeMap<u64, CellBits>,
    pub stats: tess::TessStats,
    pub ghost_bytes: u64,
    /// Per-phase thread-CPU seconds, max across ranks.
    pub exchange_s: f64,
    pub voronoi_s: f64,
    /// Modeled parallel wall clock: `exchange_s + voronoi_s`. Ranks are
    /// threads sharing cores on the CI box, so elapsed time cannot show a
    /// balance win; the per-phase max-over-ranks thread-CPU sum — the
    /// slowest rank's critical path — is what a rank-per-core machine
    /// would see, and is what the A/B gates on.
    pub modeled_s: f64,
    /// Max/mean per-rank particle count (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl DecompAbArm {
    /// Cells per modeled-parallel-wall second — the A/B headline number.
    pub fn cells_per_sec(&self) -> f64 {
        self.stats.cells as f64 / self.modeled_s
    }
}

/// Run one decomposition arm of the clustered A/B: tessellate `particles`
/// at `nranks` ranks (one block per rank) under `scheme`, with weighted
/// block→rank assignment for the k-d scheme and the multi-round adaptive
/// ghost protocol. `reps` repeats keep the best
/// (smallest) modeled wall; the mesh and imbalance are deterministic.
/// Call under `rayon::set_max_parallelism(1)` so per-rank thread-CPU
/// attribution is exact.
pub fn run_decomp_ab(
    particles: &[(u64, Vec3)],
    side: f64,
    nranks: usize,
    scheme: diy::decomposition::DecompScheme,
    reps: usize,
) -> DecompAbArm {
    use diy::decomposition::{BalanceStats, DecompScheme};
    use diy::metrics::collect_report;
    let domain = geometry::Aabb::cube(side);
    let mut best: Option<DecompAbArm> = None;
    for _ in 0..reps.max(1) {
        let rows = diy::comm::Runtime::run(nranks, move |world| {
            let positions: Vec<Vec3> = particles.iter().map(|&(_, p)| p).collect();
            let dec = scheme.build(domain, nranks, [true; 3], &positions);
            let asn = match scheme {
                DecompScheme::Regular => Assignment::new(nranks, world.nranks()),
                DecompScheme::Kd { .. } => {
                    let mut weights = vec![0u64; nranks];
                    for &p in &positions {
                        weights[dec.block_of_point(p) as usize] += 1;
                    }
                    Assignment::weighted(&weights, world.nranks())
                }
            };
            let imbalance = BalanceStats::measure(&dec, &asn, &positions).rank_imbalance();
            let local = partition_particles(particles, &dec, &asn, world.rank());
            let params = tess::TessParams {
                ghost: tess::GhostSpec::Adaptive {
                    initial_factor: 0.5,
                    max_rounds: 8,
                },
                incremental_retess: true,
                ..tess::TessParams::default()
            };
            let r = tess::tessellate(world, &dec, &asn, &local, &params);
            let stats = tess::driver::global_stats(world, r.stats);
            let report = collect_report(world);
            assert!(report.is_conserved(), "transport conservation violated");
            let (_, ghost_bytes) = report.tag_traffic_where(tess::ghost::is_ghost_tag);
            (r.blocks, stats, ghost_bytes, report, imbalance)
        });
        let mut blocks = BTreeMap::new();
        let mut first = None;
        for (b, stats, ghost_bytes, report, imbalance) in rows {
            blocks.extend(b);
            if first.is_none() {
                first = Some((stats, ghost_bytes, report, imbalance));
            }
        }
        let mesh = mesh_bits(&blocks);
        let (stats, ghost_bytes, report, imbalance) = first.expect("at least one rank");
        let exchange_s = report.cpu_max(tess::driver::PHASE_GHOST_EXCHANGE);
        let voronoi_s = report.cpu_max(tess::driver::PHASE_VORONOI);
        let arm = DecompAbArm {
            mesh,
            stats,
            ghost_bytes,
            exchange_s,
            voronoi_s,
            modeled_s: exchange_s + voronoi_s,
            imbalance,
        };
        if best.as_ref().is_none_or(|b| arm.modeled_s < b.modeled_s) {
            best = Some(arm);
        }
    }
    best.unwrap()
}

/// Initialize and advance a distributed simulation. Its cost lands in the
/// world's metrics under the [`hacc::PHASE_SIM`] span; read it back from
/// [`diy::metrics::collect_report`].
pub fn run_sim(world: &mut World, params: SimParams, nblocks: usize, nsteps: usize) -> Simulation {
    let mut sim = Simulation::init(world, params, nblocks);
    sim.run_steps(world, nsteps);
    sim
}

/// Fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Format byte counts.
pub fn bytes_h(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Like [`evolved_particles`] but cached on disk under the bench output
/// directory, so the figure harnesses that share a workload do not rerun
/// the simulation.
pub fn evolved_particles_cached(np: usize, nsteps: usize) -> Vec<(u64, Vec3)> {
    use diy::codec::{Decode, Encode};
    let params = SimParams::paper_like(np);
    let tag = (params.initial_delta_rms * 1000.0) as u64;
    let path = output_dir().join(format!(
        "particles_np{np}_steps{nsteps}_seed{}_d{tag}.cache",
        params.seed
    ));
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(v) = Vec::<(u64, Vec3)>::from_bytes(&bytes) {
            if v.len() == np * np * np {
                return v;
            }
        }
    }
    let v = evolved_particles(np, nsteps);
    std::fs::write(&path, v.to_bytes()).ok();
    v
}

/// One tessellation measurement destined for `BENCH_TESS.json`.
pub struct TessBenchEntry {
    /// Configuration label, e.g. `table2_np16_r4`.
    pub label: String,
    /// Globally merged tessellation counters.
    pub stats: tess::TessStats,
    /// Wall-clock seconds of the `tessellate` call (max across ranks).
    pub wall_s: f64,
    /// Ghost-exchange traffic in bytes (from the per-tag transport counters).
    pub ghost_bytes: u64,
    /// Per-phase thread-CPU seconds, max across ranks (critical path).
    pub exchange_s: f64,
    pub voronoi_s: f64,
    pub output_s: f64,
    /// Decomposition scheme label (`"regular"` or `"kd"`).
    pub decomp: String,
    /// Max/mean per-rank particle count (1.0 = perfectly balanced).
    pub imbalance: f64,
}

/// Render benchmark entries as the machine-readable `BENCH_TESS.json`
/// document: throughput (cells/sec), kernel work (candidates tested per
/// computed cell, cells recomputed vs reused, reuse fraction), ghost
/// traffic, and the per-phase breakdown. Schema documented in DESIGN.md.
pub fn tess_bench_json(entries: &[TessBenchEntry]) -> String {
    compose_bench_doc(Some(&tess_bench_entries_json(entries)), None, None, None)
}

/// Render just the `entries` array of `BENCH_TESS.json`.
pub fn tess_bench_entries_json(entries: &[TessBenchEntry]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let s = &e.stats;
        let cells_per_sec = if e.wall_s > 0.0 {
            s.cells as f64 / e.wall_s
        } else {
            0.0
        };
        let cand_per_cell = if s.cells_computed > 0 {
            s.candidates_tested as f64 / s.cells_computed as f64
        } else {
            0.0
        };
        let touched = s.cells_computed + s.cells_reused;
        let reuse_fraction = if touched > 0 {
            s.cells_reused as f64 / touched as f64
        } else {
            0.0
        };
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "    {{\"label\": \"{}\", \"decomp\": \"{}\", ",
                "\"imbalance\": {:.4}, \"cells\": {}, \"wall_s\": {:.6}, ",
                "\"cells_per_sec\": {:.3}, \"candidates_per_cell\": {:.3}, ",
                "\"prefilter_skipped\": {}, ",
                "\"cells_computed\": {}, \"cells_reused\": {}, ",
                "\"reuse_fraction\": {:.6}, ",
                "\"ghost_rounds\": {}, \"ghost_bytes\": {}, ",
                "\"exchange_s\": {:.6}, \"voronoi_s\": {:.6}, \"output_s\": {:.6}}}{}\n"
            ),
            json::escape(&e.label),
            json::escape(&e.decomp),
            e.imbalance,
            s.cells,
            e.wall_s,
            cells_per_sec,
            cand_per_cell,
            s.prefilter_skipped,
            s.cells_computed,
            s.cells_reused,
            reuse_fraction,
            s.ghost_rounds,
            e.ghost_bytes,
            e.exchange_s,
            e.voronoi_s,
            e.output_s,
            sep,
        ));
    }
    out.push_str("  ]");
    out
}

/// One resident-service measurement destined for the `service` section of
/// `BENCH_TESS.json` — the second headline number beside cells/sec.
pub struct ServiceBenchEntry {
    pub label: String,
    /// Total requests answered during the measured window.
    pub requests: u64,
    /// Wall-clock seconds of the measured window.
    pub wall_s: f64,
    /// Client-observed request latency quantiles, milliseconds.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Batches drained and duplicate requests coalesced by the workers.
    pub batches: u64,
    pub coalesced: u64,
    /// Mesh updates applied (epochs published) while serving.
    pub updates: u64,
    pub epochs: u64,
    /// Decomposition scheme label (`"regular"` or `"kd"`).
    pub decomp: String,
    /// Max/mean per-rank particle count at spawn (1.0 = balanced).
    pub imbalance: f64,
}

/// Render the `service` section object for `BENCH_TESS.json`.
pub fn service_bench_json(e: &ServiceBenchEntry) -> String {
    let rps = if e.wall_s > 0.0 {
        e.requests as f64 / e.wall_s
    } else {
        0.0
    };
    let mean_batch = if e.batches > 0 {
        e.requests as f64 / e.batches as f64
    } else {
        0.0
    };
    format!(
        concat!(
            "{{\"label\": \"{}\", \"decomp\": \"{}\", \"imbalance\": {:.4}, ",
            "\"requests\": {}, \"wall_s\": {:.6}, ",
            "\"requests_per_sec\": {:.3}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, ",
            "\"batches\": {}, \"mean_batch\": {:.3}, \"coalesced\": {}, ",
            "\"updates\": {}, \"epochs\": {}}}"
        ),
        json::escape(&e.label),
        json::escape(&e.decomp),
        e.imbalance,
        e.requests,
        e.wall_s,
        rps,
        e.p50_ms,
        e.p99_ms,
        e.batches,
        mean_batch,
        e.coalesced,
        e.updates,
        e.epochs,
    )
}

/// One memory measurement destined for the `memory` section of
/// `BENCH_TESS.json`: a streaming vs accumulate arm of the bounded-memory
/// A/B, or one point of the fig10 memory sweep.
pub struct MemoryBenchEntry {
    pub label: String,
    /// Output mode the run used (`"stream"` or `"accumulate"`).
    pub mode: String,
    pub nranks: usize,
    pub particles: u64,
    pub cells: u64,
    /// Allocator high-water mark over the measured window (bytes,
    /// process-wide, from `diy::mem` after `reset_peak`).
    pub peak_live_bytes: u64,
    /// Kernel-reported peak RSS (`VmHWM`, kB; 0 off Linux).
    pub peak_rss_kb: u64,
    /// Serialized mesh payload bytes in the culled output file.
    pub payload_bytes: u64,
    /// Total output file bytes including framing.
    pub file_bytes: u64,
    pub wall_s: f64,
}

/// Render one `memory` entry as a single-line JSON object.
fn memory_entry_json(e: &MemoryBenchEntry) -> String {
    let bpp = if e.particles > 0 {
        e.payload_bytes as f64 / e.particles as f64
    } else {
        0.0
    };
    format!(
        concat!(
            "{{\"label\": \"{}\", \"mode\": \"{}\", \"nranks\": {}, ",
            "\"particles\": {}, \"cells\": {}, ",
            "\"peak_live_bytes\": {}, \"peak_rss_kb\": {}, ",
            "\"payload_bytes\": {}, \"file_bytes\": {}, ",
            "\"bytes_per_particle\": {:.3}, \"wall_s\": {:.6}}}"
        ),
        json::escape(&e.label),
        json::escape(&e.mode),
        e.nranks,
        e.particles,
        e.cells,
        e.peak_live_bytes,
        e.peak_rss_kb,
        e.payload_bytes,
        e.file_bytes,
        bpp,
        e.wall_s,
    )
}

/// Compose pre-rendered single-line entry objects into the `memory`
/// section array (the two-space indent matches `compose_bench_doc`).
fn memory_section_json(rendered: &[String]) -> String {
    if rendered.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", rendered.join(",\n    "))
}

/// Render the `memory` section array for `BENCH_TESS.json`.
pub fn memory_bench_json(entries: &[MemoryBenchEntry]) -> String {
    memory_section_json(&entries.iter().map(memory_entry_json).collect::<Vec<_>>())
}

/// Write the `memory` section of `BENCH_TESS.json` (bench output dir and
/// repo root), preserving the `entries` and `service` sections **and** any
/// existing memory entries whose label does not start with
/// `replace_prefix` — so the memory gate and the fig10 sweep can each own
/// their slice of the section without clobbering the other. Returns the
/// paths written.
pub fn write_bench_memory_json(
    entries: &[MemoryBenchEntry],
    replace_prefix: &str,
) -> Vec<std::path::PathBuf> {
    let mut written = Vec::new();
    for path in [
        output_dir().join("BENCH_TESS.json"),
        repo_root().join("BENCH_TESS.json"),
    ] {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let entries_raw = extract_json_section(&existing, "entries");
        let service = extract_json_section(&existing, "service");
        // keep foreign memory entries (other bins' label prefixes)
        let kept: Vec<String> = extract_json_section(&existing, "memory")
            .and_then(|raw| json::parse(&raw).ok())
            .and_then(|v| v.as_arr().map(|a| a.to_vec()))
            .unwrap_or_default()
            .iter()
            .filter(|e| {
                e.get("label")
                    .and_then(|l| l.as_str())
                    .is_some_and(|l| !l.starts_with(replace_prefix))
            })
            .map(json::Value::render)
            .collect();
        let mut rendered: Vec<String> = entries.iter().map(memory_entry_json).collect();
        rendered.extend(kept);
        let memory = memory_section_json(&rendered);
        let telemetry = extract_json_section(&existing, "telemetry");
        let doc = compose_bench_doc(
            entries_raw.as_deref(),
            service.as_deref(),
            Some(&memory),
            telemetry.as_deref(),
        );
        if std::fs::write(&path, doc).is_ok() {
            written.push(path);
        }
    }
    written
}

/// Extract the raw balanced `[...]`/`{...}` value of a top-level `"key"` in
/// a JSON document, string-aware. `None` if absent or malformed.
pub fn extract_json_section(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let open = rest.chars().next()?;
    let close = match open {
        '[' => ']',
        '{' => '}',
        _ => return None,
    };
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in rest.char_indices() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            c if c == open => depth += 1,
            c if c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Compose the full `BENCH_TESS.json` document from its sections. Any
/// section may be absent (`entries` defaults to `[]`).
pub fn compose_bench_doc(
    entries_raw: Option<&str>,
    service_raw: Option<&str>,
    memory_raw: Option<&str>,
    telemetry_raw: Option<&str>,
) -> String {
    let mut out = String::from("{\n  \"entries\": ");
    out.push_str(entries_raw.unwrap_or("[]"));
    if let Some(s) = service_raw {
        out.push_str(",\n  \"service\": ");
        out.push_str(s);
    }
    if let Some(m) = memory_raw {
        out.push_str(",\n  \"memory\": ");
        out.push_str(m);
    }
    if let Some(t) = telemetry_raw {
        out.push_str(",\n  \"telemetry\": ");
        out.push_str(t);
    }
    out.push_str("\n}\n");
    out
}

/// Write the `telemetry` section of `BENCH_TESS.json` (bench output dir
/// and repo root), preserving the other sections in each file. Returns
/// the paths written.
pub fn write_bench_telemetry_json(telemetry_raw: &str) -> Vec<std::path::PathBuf> {
    let mut written = Vec::new();
    for path in [
        output_dir().join("BENCH_TESS.json"),
        repo_root().join("BENCH_TESS.json"),
    ] {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let entries = extract_json_section(&existing, "entries");
        let service = extract_json_section(&existing, "service");
        let memory = extract_json_section(&existing, "memory");
        let doc = compose_bench_doc(
            entries.as_deref(),
            service.as_deref(),
            memory.as_deref(),
            Some(telemetry_raw),
        );
        if std::fs::write(&path, doc).is_ok() {
            written.push(path);
        }
    }
    written
}

/// Write the `service` section of `BENCH_TESS.json` (bench output dir and
/// repo root), preserving any existing `entries` and `memory` sections in
/// each file. Returns the paths written.
pub fn write_bench_service_json(entry: &ServiceBenchEntry) -> Vec<std::path::PathBuf> {
    let service = service_bench_json(entry);
    let mut written = Vec::new();
    for path in [
        output_dir().join("BENCH_TESS.json"),
        repo_root().join("BENCH_TESS.json"),
    ] {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let entries = extract_json_section(&existing, "entries");
        let memory = extract_json_section(&existing, "memory");
        let telemetry = extract_json_section(&existing, "telemetry");
        let doc = compose_bench_doc(
            entries.as_deref(),
            Some(&service),
            memory.as_deref(),
            telemetry.as_deref(),
        );
        if std::fs::write(&path, doc).is_ok() {
            written.push(path);
        }
    }
    written
}

/// The workspace root (two levels above this crate's manifest).
pub fn repo_root() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// Write the `entries` section of `BENCH_TESS.json` to the bench output
/// dir **and** the repo root, so CI and dashboards find the latest numbers
/// at a fixed path without knowing `BENCH_OUT`. Any existing `service`
/// section in each file is preserved. Returns the paths written.
pub fn write_bench_tess_json(entries: &[TessBenchEntry]) -> Vec<std::path::PathBuf> {
    let entries_raw = tess_bench_entries_json(entries);
    let mut written = Vec::new();
    for path in [
        output_dir().join("BENCH_TESS.json"),
        repo_root().join("BENCH_TESS.json"),
    ] {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let service = extract_json_section(&existing, "service");
        let memory = extract_json_section(&existing, "memory");
        let telemetry = extract_json_section(&existing, "telemetry");
        let doc = compose_bench_doc(
            Some(&entries_raw),
            service.as_deref(),
            memory.as_deref(),
            telemetry.as_deref(),
        );
        if std::fs::write(&path, doc).is_ok() {
            written.push(path);
        }
    }
    written
}

/// Print each non-empty distribution in `report` as a one-line sparkline
/// with count / median / max annotations.
pub fn print_report_hists(report: &diy::metrics::RunReport) {
    for nh in &report.hists {
        let h = &nh.hist;
        if h.n() == 0 {
            continue;
        }
        println!(
            "  {:<28} {}  n={} p50={:.3e} max={:.3e}",
            nh.name,
            h.sparkline(),
            h.n(),
            h.quantile(0.5),
            h.max()
        );
    }
}

/// Where harness binaries drop artifacts (SVGs, data files).
pub fn output_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "bench-out".to_string()),
    );
    std::fs::create_dir_all(&dir).expect("create bench output dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Aabb;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "longheader"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1].chars().filter(|&c| c == '-').count(),
            lines[1].len()
        );
        assert!(lines[2].ends_with("2"));
    }

    #[test]
    fn partition_covers_all_particles() {
        let particles = evolved_particles(8, 2);
        assert_eq!(particles.len(), 512);
        let dec = Decomposition::regular(Aabb::cube(8.0), 8, [true; 3]);
        let asn = Assignment::new(8, 2);
        let total: usize = (0..2)
            .map(|rank| {
                partition_particles(&particles, &dec, &asn, rank)
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn json_sections_roundtrip() {
        let e = ServiceBenchEntry {
            label: "svc".into(),
            requests: 1000,
            wall_s: 0.5,
            p50_ms: 0.2,
            p99_ms: 1.5,
            batches: 40,
            coalesced: 12,
            updates: 2,
            epochs: 3,
            decomp: "kd".into(),
            imbalance: 1.08,
        };
        let svc = service_bench_json(&e);
        assert!(svc.contains("\"requests_per_sec\": 2000.000"));
        assert!(svc.contains("\"mean_batch\": 25.000"));

        let entries = "[\n    {\"label\": \"a{]b\", \"wall_s\": 1.0}\n  ]";
        let mem = memory_bench_json(&[MemoryBenchEntry {
            label: "m".into(),
            mode: "stream".into(),
            nranks: 8,
            particles: 1000,
            cells: 900,
            peak_live_bytes: 1 << 20,
            peak_rss_kb: 4096,
            payload_bytes: 50_000,
            file_bytes: 51_000,
            wall_s: 0.25,
        }]);
        assert!(mem.contains("\"bytes_per_particle\": 50.000"));
        let tele = "{\"source\": \"bench_obs\", \"overhead_pct\": 1.25}";
        let doc = compose_bench_doc(Some(entries), Some(&svc), Some(&mem), Some(tele));
        // All sections extract back verbatim, braces in strings and all.
        assert_eq!(
            extract_json_section(&doc, "entries").as_deref(),
            Some(entries)
        );
        assert_eq!(
            extract_json_section(&doc, "service").as_deref(),
            Some(svc.as_str())
        );
        assert_eq!(
            extract_json_section(&doc, "memory").as_deref(),
            Some(mem.as_str())
        );
        assert_eq!(
            extract_json_section(&doc, "telemetry").as_deref(),
            Some(tele)
        );
        // Re-splicing one section preserves the others.
        let doc2 = compose_bench_doc(
            extract_json_section(&doc, "entries").as_deref(),
            Some("{\"label\": \"new\"}"),
            extract_json_section(&doc, "memory").as_deref(),
            extract_json_section(&doc, "telemetry").as_deref(),
        );
        assert_eq!(
            extract_json_section(&doc2, "entries").as_deref(),
            Some(entries)
        );
        assert_eq!(
            extract_json_section(&doc2, "service").as_deref(),
            Some("{\"label\": \"new\"}")
        );
        assert_eq!(
            extract_json_section(&doc2, "memory").as_deref(),
            Some(mem.as_str())
        );
        assert_eq!(
            extract_json_section(&doc2, "telemetry").as_deref(),
            Some(tele)
        );
        assert_eq!(extract_json_section("{}", "entries"), None);
        assert_eq!(extract_json_section("", "service"), None);
    }

    #[test]
    fn memory_section_merge_shapes_stay_valid_json() {
        // The write path merges freshly rendered entries with kept foreign
        // ones; every combination — including zero new entries, the shape
        // that used to splice a leading comma — must stay parseable.
        let kept = json::parse(r#"{"label": "fig10_a", "mode": "stream"}"#)
            .unwrap()
            .render();
        let fresh = memory_entry_json(&MemoryBenchEntry {
            label: "memgate \"odd\"\nlabel".into(),
            mode: "accumulate".into(),
            nranks: 1,
            particles: 10,
            cells: 9,
            peak_live_bytes: 1,
            peak_rss_kb: 1,
            payload_bytes: 1000,
            file_bytes: 1100,
            wall_s: 0.1,
        });
        for rendered in [
            vec![],
            vec![kept.clone()],
            vec![fresh.clone()],
            vec![fresh.clone(), kept.clone()],
        ] {
            let section = memory_section_json(&rendered);
            let v = json::parse(&section).expect("merged memory section parses");
            assert_eq!(v.as_arr().unwrap().len(), rendered.len());
        }
        assert_eq!(memory_bench_json(&[]), "[]");
        // The hostile label survives a parse round-trip intact.
        let v = json::parse(&fresh).unwrap();
        assert_eq!(
            v.get("label").and_then(|l| l.as_str()),
            Some("memgate \"odd\"\nlabel")
        );
    }

    #[test]
    fn tess_bench_json_wraps_entries_array() {
        let doc = tess_bench_json(&[]);
        assert_eq!(
            extract_json_section(&doc, "entries").as_deref(),
            Some("[\n  ]")
        );
        assert_eq!(extract_json_section(&doc, "service"), None);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(0.0123), "12.3ms");
        assert_eq!(secs(2.5), "2.50");
        assert_eq!(secs(150.0), "150");
        assert_eq!(bytes_h(512), "512B");
        assert_eq!(bytes_h(2048), "2.0KiB");
        assert_eq!(bytes_h(3 << 20), "3.00MiB");
    }
}
