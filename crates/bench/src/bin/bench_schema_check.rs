//! Schema gate for `BENCH_TESS.json` (the machine-readable bench
//! artifact dashboards and CI diff against). Validates the generated file
//! at the repo root — or the path given as the first argument — against
//! the schema documented in DESIGN.md:
//!
//! * top level: an object with `entries` (required array) and optional
//!   `service` (object) / `memory` (array) / `telemetry` (object)
//!   sections, nothing else;
//! * every `entries` element carries the full measurement key set
//!   (label/decomp/imbalance through the per-phase seconds);
//! * `service` carries the resident-service counters and latencies;
//! * every `memory` element carries the streaming-vs-accumulate memory
//!   counters with `mode` in {stream, accumulate};
//! * `telemetry` carries the observability gate's numbers (`bench_obs`):
//!   A/B overhead, exposition series count, rolling-quantile bucket error.
//!
//! Any violation prints the offending path and exits non-zero, so a
//! harness emitting a malformed or incomplete document fails CI instead of
//! silently shipping a truncated artifact.

use bench_harness::json::{parse, Value};

/// Accumulates violations instead of failing fast, so one run reports
/// every problem in the file.
struct Checker {
    errors: Vec<String>,
}

impl Checker {
    fn err(&mut self, at: &str, msg: String) {
        self.errors.push(format!("{at}: {msg}"));
    }

    /// Require `key` on `obj`, returning it for further checks.
    fn want<'v>(&mut self, at: &str, obj: &'v Value, key: &str) -> Option<&'v Value> {
        let v = obj.get(key);
        if v.is_none() {
            self.err(at, format!("missing required key \"{key}\""));
        }
        v
    }

    fn want_str(&mut self, at: &str, obj: &Value, key: &str, allowed: Option<&[&str]>) {
        if let Some(v) = self.want(at, obj, key) {
            match v.as_str() {
                None => self.err(at, format!("\"{key}\" must be a string")),
                Some(s) => {
                    if let Some(allowed) = allowed {
                        if !allowed.contains(&s) {
                            self.err(
                                at,
                                format!("\"{key}\" is \"{s}\", expected one of {allowed:?}"),
                            );
                        }
                    }
                }
            }
        }
    }

    /// A finite, non-negative number (every schema field is a count,
    /// byte total, ratio, or seconds — all >= 0).
    fn want_num(&mut self, at: &str, obj: &Value, key: &str) {
        if let Some(v) = self.want(at, obj, key) {
            match v.as_num() {
                None => self.err(at, format!("\"{key}\" must be a number")),
                Some(n) if !n.is_finite() || n < 0.0 => {
                    self.err(at, format!("\"{key}\" is {n}, expected finite and >= 0"))
                }
                Some(_) => {}
            }
        }
    }

    fn no_extras(&mut self, at: &str, obj: &Value, allowed: &[&str]) {
        for k in obj.keys() {
            if !allowed.contains(&k) {
                self.err(at, format!("unknown key \"{k}\""));
            }
        }
    }
}

const ENTRY_NUMS: &[&str] = &[
    "imbalance",
    "cells",
    "wall_s",
    "cells_per_sec",
    "candidates_per_cell",
    "prefilter_skipped",
    "cells_computed",
    "cells_reused",
    "reuse_fraction",
    "ghost_rounds",
    "ghost_bytes",
    "exchange_s",
    "voronoi_s",
    "output_s",
];

const SERVICE_NUMS: &[&str] = &[
    "imbalance",
    "requests",
    "wall_s",
    "requests_per_sec",
    "p50_ms",
    "p99_ms",
    "batches",
    "mean_batch",
    "coalesced",
    "updates",
    "epochs",
];

const TELEMETRY_NUMS: &[&str] = &[
    "nranks",
    "particles",
    "cells",
    "wall_off_s",
    "wall_on_s",
    "overhead_pct",
    "exposition_series",
    "quantile_bucket_err",
];

const MEMORY_NUMS: &[&str] = &[
    "nranks",
    "particles",
    "cells",
    "peak_live_bytes",
    "peak_rss_kb",
    "payload_bytes",
    "file_bytes",
    "bytes_per_particle",
    "wall_s",
];

fn check(doc: &Value) -> Vec<String> {
    let mut c = Checker { errors: Vec::new() };
    if !matches!(doc, Value::Obj(_)) {
        return vec!["top level: must be an object".into()];
    }
    c.no_extras(
        "top level",
        doc,
        &["entries", "service", "memory", "telemetry"],
    );

    match c.want("top level", doc, "entries").and_then(Value::as_arr) {
        None => {
            if doc.get("entries").is_some() {
                c.err("top level", "\"entries\" must be an array".into());
            }
        }
        Some(entries) => {
            for (i, e) in entries.iter().enumerate() {
                let label = e
                    .get("label")
                    .and_then(Value::as_str)
                    .unwrap_or("<unlabeled>");
                let at = format!("entries[{i}] ({label})");
                c.want_str(&at, e, "label", None);
                c.want_str(&at, e, "decomp", Some(&["regular", "kd"]));
                for k in ENTRY_NUMS {
                    c.want_num(&at, e, k);
                }
                let allowed: Vec<&str> = ["label", "decomp"]
                    .into_iter()
                    .chain(ENTRY_NUMS.iter().copied())
                    .collect();
                c.no_extras(&at, e, &allowed);
            }
        }
    }

    if let Some(s) = doc.get("service") {
        let at = "service";
        if !matches!(s, Value::Obj(_)) {
            c.err(at, "must be an object".into());
        } else {
            c.want_str(at, s, "label", None);
            c.want_str(at, s, "decomp", Some(&["regular", "kd"]));
            for k in SERVICE_NUMS {
                c.want_num(at, s, k);
            }
            let allowed: Vec<&str> = ["label", "decomp"]
                .into_iter()
                .chain(SERVICE_NUMS.iter().copied())
                .collect();
            c.no_extras(at, s, &allowed);
        }
    }

    if let Some(m) = doc.get("memory") {
        match m.as_arr() {
            None => c.err("memory", "must be an array".into()),
            Some(items) => {
                for (i, e) in items.iter().enumerate() {
                    let label = e
                        .get("label")
                        .and_then(Value::as_str)
                        .unwrap_or("<unlabeled>");
                    let at = format!("memory[{i}] ({label})");
                    c.want_str(&at, e, "label", None);
                    c.want_str(&at, e, "mode", Some(&["stream", "accumulate"]));
                    for k in MEMORY_NUMS {
                        c.want_num(&at, e, k);
                    }
                    let allowed: Vec<&str> = ["label", "mode"]
                        .into_iter()
                        .chain(MEMORY_NUMS.iter().copied())
                        .collect();
                    c.no_extras(&at, e, &allowed);
                }
            }
        }
    }
    if let Some(t) = doc.get("telemetry") {
        let at = "telemetry";
        if !matches!(t, Value::Obj(_)) {
            c.err(at, "must be an object".into());
        } else {
            c.want_str(at, t, "source", Some(&["bench_obs"]));
            for k in TELEMETRY_NUMS {
                c.want_num(at, t, k);
            }
            let allowed: Vec<&str> = ["source"]
                .into_iter()
                .chain(TELEMETRY_NUMS.iter().copied())
                .collect();
            c.no_extras(at, t, &allowed);
        }
    }
    c.errors
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| bench_harness::repo_root().join("BENCH_TESS.json"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_schema_check: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "bench_schema_check: {} is not valid JSON: {e}",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let errors = check(&doc);
    if !errors.is_empty() {
        eprintln!(
            "bench_schema_check: {} violates the BENCH_TESS schema:",
            path.display()
        );
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    let n_entries = doc
        .get("entries")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    let n_memory = doc
        .get("memory")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    println!(
        "bench_schema_check: {} ok ({n_entries} entries, service {}, {n_memory} memory entries, \
         telemetry {})",
        path.display(),
        if doc.get("service").is_some() {
            "present"
        } else {
            "absent"
        },
        if doc.get("telemetry").is_some() {
            "present"
        } else {
            "absent"
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Vec<String> {
        check(&parse(text).unwrap())
    }

    #[test]
    fn accepts_the_composed_document_shape() {
        let mem = bench_harness::memory_bench_json(&[bench_harness::MemoryBenchEntry {
            label: "m".into(),
            mode: "stream".into(),
            nranks: 8,
            particles: 100,
            cells: 90,
            peak_live_bytes: 1,
            peak_rss_kb: 2,
            payload_bytes: 3,
            file_bytes: 4,
            wall_s: 0.1,
        }]);
        let entries = bench_harness::tess_bench_entries_json(&[bench_harness::TessBenchEntry {
            label: "e".into(),
            stats: Default::default(),
            wall_s: 1.0,
            ghost_bytes: 0,
            exchange_s: 0.1,
            voronoi_s: 0.2,
            output_s: 0.3,
            decomp: "kd".into(),
            imbalance: 1.0,
        }]);
        let tele = concat!(
            "{\"source\": \"bench_obs\", \"nranks\": 4, \"particles\": 4096, ",
            "\"cells\": 4096, \"wall_off_s\": 0.5, \"wall_on_s\": 0.51, ",
            "\"overhead_pct\": 2.0, \"exposition_series\": 40, ",
            "\"quantile_bucket_err\": 0}"
        );
        let text = bench_harness::compose_bench_doc(Some(&entries), None, Some(&mem), Some(tele));
        assert_eq!(doc(&text), Vec::<String>::new());
    }

    #[test]
    fn flags_schema_violations() {
        // missing required entry keys
        let errs = doc(r#"{"entries": [{"label": "x"}]}"#);
        assert!(
            errs.iter()
                .any(|e| e.contains("missing required key \"decomp\"")),
            "{errs:?}"
        );
        // bad enum
        let errs = doc(r#"{"entries": [], "memory": [{"label": "m", "mode": "both"}]}"#);
        assert!(
            errs.iter().any(|e| e.contains("expected one of")),
            "{errs:?}"
        );
        // unknown keys, wrong types, negative numbers
        let errs = doc(r#"{"entries": [], "bogus": 1}"#);
        assert!(
            errs.iter().any(|e| e.contains("unknown key \"bogus\"")),
            "{errs:?}"
        );
        let errs = doc(r#"{"entries": "nope"}"#);
        assert!(
            errs.iter().any(|e| e.contains("must be an array")),
            "{errs:?}"
        );
        let errs =
            doc(r#"{"entries": [], "service": {"label": "s", "decomp": "kd", "imbalance": -1}}"#);
        assert!(
            errs.iter().any(|e| e.contains("expected finite and >= 0")),
            "{errs:?}"
        );
        // telemetry: wrong shape, bad source, missing/unknown keys
        let errs = doc(r#"{"entries": [], "telemetry": []}"#);
        assert!(
            errs.iter().any(|e| e.contains("must be an object")),
            "{errs:?}"
        );
        let errs = doc(r#"{"entries": [], "telemetry": {"source": "elsewhere"}}"#);
        assert!(
            errs.iter().any(|e| e.contains("expected one of")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("missing required key \"overhead_pct\"")),
            "{errs:?}"
        );
        let errs = doc(r#"{"entries": [], "telemetry": {"source": "bench_obs", "extra": 1}}"#);
        assert!(
            errs.iter().any(|e| e.contains("unknown key \"extra\"")),
            "{errs:?}"
        );
        // entries section entirely absent
        let errs = doc("{}");
        assert!(
            errs.iter()
                .any(|e| e.contains("missing required key \"entries\"")),
            "{errs:?}"
        );
    }
}
