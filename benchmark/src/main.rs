//! The repository's benchmark: five workloads over the in-situ pipeline,
//! each measured end to end (untraced) and layer by layer (traced).
//! `README.md` explains the workloads and metrics; `run.sh` builds and
//! runs this binary.

mod corpus;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// Ranks every distributed phase runs on: one per core of the 2-core box
/// the benchmark is sized for, so wall clock is a valid scaling measure.
pub const NRANKS: usize = 2;
/// Blocks of every decomposition.
pub const NBLOCKS: usize = 8;

type Run = fn(&Config) -> Outcome;

/// Workload names with the function that runs each.
pub const WORKLOADS: &[(&str, Run)] = &[
    ("insitu_stream", workloads::insitu::run),
    ("clustered_batch", workloads::clustered::run),
    ("service_query", workloads::service::run_query),
    ("service_update", workloads::service::run_update),
    ("post_voids", workloads::post_voids::run),
];

pub struct Config {
    pub seed: u64,
    /// How long the measured phase lasts. Work comes in whole units (a
    /// simulation loop, a tessellation pass, an update period), so a phase
    /// runs until the first unit boundary at or past this.
    pub seconds: f64,
    pub trace: bool,
    /// np = 16 and a single unit of work: exercises the checks only.
    pub quick: bool,
    /// Where meshes, traces and result files go.
    pub out: PathBuf,
}

impl Config {
    /// Particles per dimension of the `hacc` runs.
    pub fn np(&self) -> usize {
        if self.quick {
            16
        } else {
            32
        }
    }

    /// One file per workload and kind, overwritten by the next run: a
    /// mesh is 26 MB and a service trace 50 MB, and the driver makes over a
    /// hundred runs in one checkout.
    pub fn out_file(&self, workload: &str, ext: &str) -> PathBuf {
        self.out.join(format!("{workload}.{ext}"))
    }
}

const USAGE: &str = "usage: tess-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--out DIR]";

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--out" => cfg.out = PathBuf::from(value("a directory")?),
            "--quick" => cfg.quick = true,
            "--trace" => {
                cfg.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.seconds = seconds.unwrap_or(if cfg.quick { 2.0 } else { 10.0 });
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

/// Keep every core busy for a second before anything is timed. On the VM
/// this was written on, a core that has been idle runs at well under half
/// speed for the first second under load, which a set-up phase of a few
/// milliseconds would otherwise measure.
fn wake_cores() {
    let until = Instant::now() + Duration::from_secs(1);
    std::thread::scope(|scope| {
        for _ in 0..NRANKS {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(x.wrapping_add(i * i));
                    }
                }
            });
        }
    });
}

fn main() -> ExitCode {
    let (name, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|w| w.0 == name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("unknown workload `{name}`; one of {}", known.join(", "));
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("cannot create {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }
    // Ranks are the parallelism: keep each rank's cell pool to the rank's
    // own thread so two ranks use the two cores and no more.
    rayon::set_max_parallelism(1);
    wake_cores();

    let outcome = run(&cfg);
    let kind = if cfg.trace { "layers" } else { "e2e" };
    print!("{}", outcome.table(cfg.trace));
    let line = outcome.json_line(cfg.trace);
    if let Err(e) = std::fs::write(cfg.out_file(name, &format!("{kind}.json")), &line) {
        eprintln!("cannot write the result file: {e}");
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
