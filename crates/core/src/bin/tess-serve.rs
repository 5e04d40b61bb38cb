//! `tess-serve` — the resident tessellation service as a command-line tool.
//!
//! Loads (or generates) a point set, spawns a [`tess::MeshService`], and
//! answers queries from stdin — one command per line — while the certified
//! mesh stays resident between requests:
//!
//! ```text
//! tess-serve --n 500 --box 10 [--seed 1] [--ranks 2] [--blocks 8]
//!            [--workers 2] [--batch 64] [--ghost 3.0] [--no-periodic]
//!            [--points points.bin] [--telemetry out.prom[:secs]] [--demo]
//!
//! > point 1.5 2.0 3.25          # nearest-seed cell lookup
//! > box 0 0 0 2 2 2             # cells whose seed lies in the box
//! > region 0 0 0 5 5 5          # volume/density summary over the box
//! > move 17 4.0 4.0 4.0         # upsert particle 17 and re-tessellate
//! > remove 17                   # drop particle 17 and re-tessellate
//! > stats                       # human-readable live-telemetry table
//! > metrics                     # Prometheus text exposition dump
//! > quit
//! ```
//!
//! `--telemetry <path>[:<secs>]` starts a periodic exporter: every
//! interval (default 5 s) it advances the telemetry epoch (rotating the
//! rolling-quantile windows) and rewrites `<path>` with the Prometheus
//! exposition, so an external scraper can watch a running service by
//! reading one file. A final export lands on shutdown.
//!
//! `--demo` runs a scripted query/update round-trip instead of reading
//! stdin (used by CI as an end-to-end smoke of the service binary); it
//! exercises `stats` and `metrics` and re-parses the exposition output.
//!
//! Points files are the workspace codec encoding of `Vec<(u64, Vec3)>`,
//! as written by `tess-cli generate`.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::ExitCode;

use diy::codec::Decode;
use diy::telemetry::Registry;
use diy::{log_error, log_info};
use geometry::{Aabb, Vec3};
use tess::{Answer, MeshService, Query, ServiceConfig, TessParams, Update, UpdateReport};

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", raw[i]))?;
            if key == "no-periodic" || key == "demo" {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }
}

fn load_points(args: &Args, box_len: f64) -> Result<Vec<(u64, Vec3)>, String> {
    if let Some(path) = args.get::<String>("points")? {
        let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
        return Vec::<(u64, Vec3)>::from_bytes(&bytes).map_err(|e| e.to_string());
    }
    use rand::{Rng, SeedableRng};
    let n: usize = args.require("n")?;
    let seed: u64 = args.get("seed")?.unwrap_or(42);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Ok((0..n as u64)
        .map(|id| {
            (
                id,
                Vec3::new(
                    rng.gen_range(0.0..box_len),
                    rng.gen_range(0.0..box_len),
                    rng.gen_range(0.0..box_len),
                ),
            )
        })
        .collect())
}

fn answer_line(svc: &MeshService, query: Query) -> Result<String, String> {
    let r = svc.query(query).map_err(|_| "service closed".to_string())?;
    let body = match r.answer {
        Answer::Point(None) => "point: no cell (empty mesh)".to_string(),
        Answer::Point(Some(h)) => format!(
            "point: site {} block {} dist {:.6} volume {:.6} area {:.6} faces {}{}",
            h.site_id,
            h.gid,
            h.dist2.sqrt(),
            h.volume,
            h.area,
            h.faces,
            if h.complete { "" } else { " (incomplete)" }
        ),
        Answer::BoxCells(cells) => {
            let vol: f64 = cells.iter().map(|c| c.volume).sum();
            format!("box: {} cells, total volume {vol:.6}", cells.len())
        }
        Answer::Region(s) => format!(
            "region: {} cells, volume {:.6}, area {:.6}, density {:.6} cells/vol",
            s.cells, s.volume, s.area, s.density
        ),
    };
    Ok(format!(
        "[epoch {} | {:.2}ms] {body}",
        r.epoch,
        r.latency_ns as f64 / 1e6
    ))
}

fn parse_vec3(w: &[&str]) -> Result<Vec3, String> {
    if w.len() != 3 {
        return Err(format!("expected 3 coordinates, got {}", w.len()));
    }
    let p = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number '{s}'"));
    Ok(Vec3::new(p(w[0])?, p(w[1])?, p(w[2])?))
}

fn parse_aabb(w: &[&str]) -> Result<Aabb, String> {
    if w.len() != 6 {
        return Err(format!("expected 6 coordinates, got {}", w.len()));
    }
    Ok(Aabb::new(parse_vec3(&w[..3])?, parse_vec3(&w[3..])?))
}

/// The reply to an update: the epoch, its size, and how many of the cells
/// considered were carried from the previous epoch.
fn published_line(rep: &UpdateReport) -> String {
    let s = rep.stats;
    format!(
        "epoch {} published: {} particles, {} cells, reused {} of {} cells ({:.2}s)",
        rep.epoch,
        rep.particles,
        rep.cells,
        s.cells_reused,
        s.cells_reused + s.cells_computed,
        rep.tess_wall_s
    )
}

fn run_command(svc: &MeshService, line: &str) -> Result<Option<String>, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let Some((cmd, rest)) = words.split_first() else {
        return Ok(None);
    };
    match *cmd {
        "quit" | "exit" => Ok(None),
        "point" => answer_line(svc, Query::Point(parse_vec3(rest)?)).map(Some),
        "box" => answer_line(svc, Query::BoxCells(parse_aabb(rest)?)).map(Some),
        "region" => answer_line(svc, Query::Region(parse_aabb(rest)?)).map(Some),
        "move" => {
            let id: u64 = rest
                .first()
                .and_then(|s| s.parse().ok())
                .ok_or("move needs: id x y z")?;
            let pos = parse_vec3(rest.get(1..).unwrap_or(&[]))?;
            let rep = svc.update(Update::Delta {
                upserts: vec![(id, pos)],
                removes: Vec::new(),
            });
            Ok(Some(published_line(&rep)))
        }
        "remove" => {
            let id: u64 = rest
                .first()
                .and_then(|s| s.parse().ok())
                .ok_or("remove needs: id")?;
            let rep = svc.update(Update::Delta {
                upserts: Vec::new(),
                removes: vec![id],
            });
            Ok(Some(published_line(&rep)))
        }
        "stats" => Ok(Some(stats_table(svc))),
        "metrics" => Ok(Some(svc.telemetry().render_prometheus())),
        other => Err(format!(
            "unknown command '{other}' (point|box|region|move|remove|stats|metrics|quit)"
        )),
    }
}

/// Human-readable live-telemetry table: one `name  value` row per stat,
/// mixing the mesh snapshot, service counters, and latency quantiles.
fn stats_table(svc: &MeshService) -> String {
    let snap = svc.snapshot();
    let s = svc.stats();
    let reg = svc.telemetry();
    let imbalance = reg.gauge("service.rank_imbalance", &[]).get();
    let queue_depth = reg.gauge("service.queue_depth", &[]).get();
    let batch_size = reg.histogram("service.batch_size", &[]).read();
    let mut latency_ns = diy::LogHistogram::new();
    for kind in ["point", "box", "region"] {
        let h = reg.histogram("service.latency_ns", &[("kind", kind)]);
        latency_ns.merge(h.read().total());
    }
    let rate = if s.answered > 0 {
        s.coalesced as f64 / s.answered as f64
    } else {
        0.0
    };
    let rows: Vec<(&str, String)> = vec![
        ("epoch", snap.epoch.to_string()),
        ("cells", snap.total_cells.to_string()),
        ("total volume", format!("{:.6}", snap.total_volume)),
        ("rank imbalance", format!("{imbalance:.3}")),
        ("queue depth", format!("{queue_depth:.0}")),
        ("enqueued", s.enqueued.to_string()),
        ("answered", s.answered.to_string()),
        ("rejected", s.rejected.to_string()),
        ("batches", s.batches.to_string()),
        (
            "coalesced",
            format!("{} ({:.1}%)", s.coalesced, 100.0 * rate),
        ),
        ("epochs published", s.epochs_published.to_string()),
        (
            "batch size p50/p99",
            format!(
                "{:.0} / {:.0}",
                batch_size.total().quantile(0.5),
                batch_size.total().quantile(0.99)
            ),
        ),
        (
            "latency p50/p99",
            format!(
                "{:.3}ms / {:.3}ms",
                latency_ns.quantile(0.5) / 1e6,
                latency_ns.quantile(0.99) / 1e6
            ),
        ),
    ];
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    rows.iter()
        .map(|(k, v)| format!("{k:width$}  {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Background exporter for `--telemetry <path>[:<secs>]`: every interval
/// advances the telemetry epoch (rotating rolling-quantile windows) and
/// rewrites `path` with the Prometheus exposition. A final export runs on
/// [`TelemetryExporter::stop`] so short runs still leave a scrape behind.
struct TelemetryExporter {
    registry: Registry,
    path: String,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryExporter {
    fn export(registry: &Registry, path: &str) {
        registry.advance_epoch();
        if let Err(e) = std::fs::write(path, registry.render_prometheus()) {
            log_error!("telemetry export to {path}: {e}");
        }
    }

    fn start(registry: Registry, path: String, interval_s: f64) -> TelemetryExporter {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let (reg, p) = (registry.clone(), path.clone());
        let handle = std::thread::spawn(move || {
            let tick = std::time::Duration::from_millis(50);
            let mut next =
                std::time::Instant::now() + std::time::Duration::from_secs_f64(interval_s);
            while !flag.load(Ordering::Relaxed) {
                if std::time::Instant::now() >= next {
                    TelemetryExporter::export(&reg, &p);
                    next += std::time::Duration::from_secs_f64(interval_s);
                }
                std::thread::sleep(tick);
            }
        });
        TelemetryExporter {
            registry,
            path,
            stop,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        TelemetryExporter::export(&self.registry, &self.path);
        log_info!("telemetry exposition written to {}", self.path);
    }
}

/// Parse `--telemetry` (`path` or `path:secs`); bad suffixes are treated
/// as part of the path rather than rejected.
fn parse_telemetry_flag(raw: &str) -> (String, f64) {
    if let Some((path, secs)) = raw.rsplit_once(':') {
        if let Ok(s) = secs.parse::<f64>() {
            if s > 0.0 && !path.is_empty() {
                return (path.to_string(), s);
            }
        }
    }
    (raw.to_string(), 5.0)
}

/// Scripted round-trip for CI: query, update, re-query, check the epoch
/// advanced and the whole-domain volume stays equal to the box volume
/// (periodic domains tile space exactly).
fn demo(svc: &MeshService, domain: Aabb, periodic: bool) -> Result<(), String> {
    let center = Vec3::new(
        0.5 * (domain.min.x + domain.max.x),
        0.5 * (domain.min.y + domain.max.y),
        0.5 * (domain.min.z + domain.max.z),
    );
    for line in [
        format!("point {} {} {}", center.x, center.y, center.z),
        format!(
            "box {} {} {} {} {} {}",
            domain.min.x, domain.min.y, domain.min.z, center.x, center.y, center.z
        ),
        format!(
            "region {} {} {} {} {} {}",
            domain.min.x, domain.min.y, domain.min.z, domain.max.x, domain.max.y, domain.max.z
        ),
        format!("move 0 {} {} {}", center.x, center.y, center.z),
        format!("point {} {} {}", center.x, center.y, center.z),
        "stats".to_string(),
    ] {
        let out = run_command(svc, &line)?.unwrap_or_default();
        log_info!("demo> {line}");
        log_info!("{out}");
    }
    // `metrics` must emit a parseable exposition that reflects the run:
    // epoch 2 published, and at least as many answers as the script sent.
    let expo = run_command(svc, "metrics")?.ok_or("demo: metrics returned nothing")?;
    let samples =
        diy::telemetry::parse_exposition(&expo).map_err(|e| format!("demo: metrics: {e}"))?;
    log_info!("demo> metrics ({} samples parsed)", samples.len());
    let series = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .ok_or_else(|| format!("demo: metrics missing series {name}"))
    };
    if series("service_epoch")? != 2.0 {
        return Err("demo: service_epoch gauge should read 2".into());
    }
    if series("service_answered")? < 4.0 {
        return Err("demo: service_answered should count the scripted queries".into());
    }
    log_info!("demo: exposition parses and matches the run — OK");
    if svc.epoch() != 2 {
        return Err(format!("demo: expected epoch 2, got {}", svc.epoch()));
    }
    if periodic {
        let snap = svc.snapshot();
        let vol = domain.volume();
        if (snap.total_volume - vol).abs() > 1e-9 * vol {
            return Err(format!(
                "demo: total cell volume {} != domain volume {vol}",
                snap.total_volume
            ));
        }
        log_info!("demo: volume conserved to 1e-9 after update — OK");
    }
    // After the update the moved particle's cell must contain its new seed.
    let hit = match svc.query(Query::Point(center)).map_err(|e| e.to_string())? {
        tess::Response {
            answer: Answer::Point(Some(h)),
            ..
        } => h,
        _ => return Err("demo: no cell at the moved seed".into()),
    };
    if hit.site_id != 0 || hit.dist2 != 0.0 {
        return Err(format!(
            "demo: moved particle 0 should own its seed point, got site {} dist2 {}",
            hit.site_id, hit.dist2
        ));
    }
    log_info!("demo: moved particle owns its seed — OK");
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let box_len: f64 = args.require("box")?;
    let ranks: usize = args.get("ranks")?.unwrap_or(2);
    let blocks: usize = args.get("blocks")?.unwrap_or(8);
    let workers: usize = args.get("workers")?.unwrap_or(2);
    let batch: usize = args.get("batch")?.unwrap_or(64);
    let periodic = !args.flags.contains_key("no-periodic");
    let points = load_points(args, box_len)?;

    let mut params = TessParams::default().with_adaptive_ghost();
    if let Some(g) = args.get::<f64>("ghost")? {
        params = params.with_ghost(g);
    }
    let domain = Aabb::cube(box_len);
    let svc = MeshService::spawn(
        domain,
        [periodic; 3],
        &points,
        ServiceConfig::new(ranks, blocks)
            .with_workers(workers)
            .with_batch_max(batch)
            .with_params(params),
    );
    let snap = svc.snapshot();
    log_info!(
        "serving {} cells from {} particles (epoch {}, {blocks} blocks on {ranks} ranks, \
         {workers} workers, batch {batch})",
        snap.total_cells,
        points.len(),
        snap.epoch
    );

    let exporter = args.get::<String>("telemetry")?.map(|raw| {
        let (path, interval_s) = parse_telemetry_flag(&raw);
        log_info!("telemetry exposition -> {path} every {interval_s}s");
        TelemetryExporter::start(svc.telemetry().clone(), path, interval_s)
    });

    if args.flags.contains_key("demo") {
        let r = demo(&svc, domain, periodic);
        if let Some(e) = exporter {
            e.stop();
        }
        return r;
    }

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        match run_command(&svc, trimmed) {
            Ok(Some(out)) => println!("{out}"),
            Ok(None) => {}
            Err(e) => log_error!("{e}"),
        }
    }
    let stats = svc.shutdown();
    if let Some(e) = exporter {
        e.stop();
    }
    log_info!(
        "shutting down: {} answered, {} epochs published",
        stats.answered,
        stats.epochs_published
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            log_error!(
                "{e}\nusage: tess-serve --box L (--n N | --points FILE) [flags] (see module docs)"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log_error!("{e}");
            ExitCode::FAILURE
        }
    }
}
