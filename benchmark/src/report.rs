//! The metric vocabulary (the same names and units as `BENCHMARK.json`)
//! and the run result: a table for people, one JSON line for the driver.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics. Every workload reports every one of them from its
/// untraced run; README.md says what each stands for on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_mem_mb", "MiB"),
    ("mesh_bytes_per_cell", "B"),
];

/// Per-layer metrics, from the traced run. A layer a workload never calls
/// reports 0 for its counts and times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analysis_overhead_ratio", "ratio"),
    ("hacc.step_ms", "ms"),
    ("hacc.steps", "count"),
    ("decomp.build_ms", "ms"),
    ("decomp.rank_imbalance", "ratio"),
    ("comm.barrier_us", "us"),
    ("comm.all_reduce_us", "us"),
    ("comm.wait_s", "s"),
    ("ghost.exchange_s", "s"),
    ("ghost.rounds", "count"),
    ("ghost.particles_received", "count"),
    ("ghost.per_site", "ratio"),
    ("kernel.block_s", "s"),
    ("kernel.us_per_cell", "us"),
    ("kernel.cells_computed", "count"),
    ("kernel.cells_reused", "count"),
    ("kernel.useful_ratio", "ratio"),
    ("kernel.candidates_per_cell", "ratio"),
    ("kernel.prefilter_skipped", "count"),
    ("kernel.cells_per_s_1rank", "1/s"),
    ("kernel.parallel_efficiency", "ratio"),
    ("output.write_s", "s"),
    ("output.bytes", "B"),
    ("output.mb_per_s", "MB/s"),
    ("input.read_s", "s"),
    ("input.mb_per_s", "MB/s"),
    ("mem.allocs_per_cell", "ratio"),
    ("mem.peak_live_mb", "MiB"),
    ("post.label_s", "s"),
    ("post.minkowski_s", "s"),
    ("post.components", "count"),
    ("service.spawn_s", "s"),
    ("service.answer_point_ns", "ns"),
    ("service.answer_box_us", "us"),
    ("service.answer_region_us", "us"),
    ("service.queue_overhead_us", "us"),
    ("service.batch_size_mean", "ratio"),
    ("service.coalesce_ratio", "ratio"),
    ("service.query_p50_us", "us"),
    ("service.query_p99_us", "us"),
    ("service.update_tess_ms", "ms"),
    ("service.publish_ms", "ms"),
    ("service.update_lateness_ms", "ms"),
    ("service.epochs", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.tiling_error", "ratio"),
];

/// What one run of one workload found.
pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted and failed (sites and dropped cells, requests
    /// and refused or wrong answers, iterations and read errors); a failed
    /// check also counts as a failed operation.
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool, String)>,
    /// Sample counts and other context printed under the table.
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. The name must be one `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric `{name}` is not in the vocabulary"
        );
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a correctness check; a miss fails the run.
    pub fn check(&mut self, what: &str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((what.to_string(), ok, detail));
    }

    /// [`check`](Self::check) from a result that carries its own detail.
    pub fn check_result(&mut self, what: &str, result: &Result<String, String>) {
        match result {
            Ok(detail) => self.check(what, true, detail.clone()),
            Err(detail) => self.check(what, false, detail.clone()),
        }
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The metrics this run must report: every end-to-end metric from an
    /// untraced run, every per-layer metric from a traced one.
    fn reported(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.get(n).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self
                        .get(n)
                        .unwrap_or_else(|| panic!("{}: `{n}` was not measured", self.workload));
                    (n, u, v)
                })
                .collect()
        }
    }

    /// Human-readable table: every metric with its unit, then the checks.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        let kind = if traced {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "== {} · {kind}", self.workload);
        for (n, u, v) in self.reported(traced) {
            let _ = writeln!(out, "  {n:<36} {v:>16.6} {u}");
        }
        let _ = writeln!(
            out,
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for (what, ok, detail) in &self.checks {
            let mark = if *ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  [{mark}] {what}: {detail}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// The driver's result object, on one line.
    pub fn json_line(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (n, u, v)) in self.reported(traced).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints every digit an f64 holds and always a number
            let _ = write!(out, "\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(n), "{n} declared twice");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!u.is_empty() && u.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|&(n, _)| n == "setup_s"));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must declare the same metrics and units.
    #[test]
    fn vocabulary_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = text.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.0)));
        }
    }

    #[test]
    fn json_line_carries_every_metric_of_its_kind() {
        let mut o = Outcome::new("t");
        for &(n, _) in END_TO_END {
            o.set(n, 1.25);
        }
        o.attempted = 10;
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
        // an idle layer reads 0 in a traced run
        let traced = o.json_line(true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"post.label_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::new("t");
        assert!(o.correct());
        o.check("volume", false, "off by 1".into());
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
    }
}
