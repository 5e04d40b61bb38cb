//! Live telemetry: a label-aware metric registry with Prometheus-style
//! text exposition.
//!
//! Everything else in `diy::metrics` is *post-hoc*: `RunReport`s
//! materialize after a batch run ends. This module is the *live* side — a
//! resident service ([`tess::MeshService`]-style) owns a [`Registry`],
//! registers counters, gauges, and windowed histograms on it, updates them
//! on its hot paths (handles are `Arc`s over relaxed atomics; histograms
//! take a short mutex), and a scraper renders the whole registry at any
//! moment without stopping the service.
//!
//! A registry is a value, not a process global: two services in one
//! process each own one, so each series counts exactly one service's
//! events and the service needs no private copy of its own counters.
//!
//! ## Model
//!
//! A metric is identified by `(name, labels)` where `labels` is a sorted
//! list of `key=value` pairs: `("service.latency_ns", [kind=point])` and
//! `("service.latency_ns", [kind=box])` are two series of one metric.
//! Three instrument kinds:
//!
//! - **Counter** — monotonically non-decreasing `u64` (`inc`/`add`).
//! - **Gauge** — an `f64` that goes up and down (`set`).
//! - **Histogram** — a [`WindowedHistogram`]: a cumulative
//!   [`LogHistogram`] plus a ring of per-epoch windows. Rolling quantiles
//!   (p50/p99 over the last `window` epochs) answer "how slow is it *right
//!   now*", while the cumulative histogram answers "since start".
//!   [`Registry::advance_epoch`] rotates every registered ring (the
//!   exporter's scrape interval is the natural epoch).
//!
//! Registering the same `(name, labels)` twice on one registry returns a
//! handle to the same underlying instrument; registering it as a
//! *different kind* panics (a programming error, caught loudly).
//!
//! ## Exposition
//!
//! [`Registry::render_prometheus`] emits the classic text exposition
//! (`# TYPE` comments, `name{label="value"} value` samples; histograms as
//! summaries with rolling `quantile="0.5"`/`"0.99"` rows plus cumulative
//! `_count` / `_sum`). Metric names are sanitized for Prometheus
//! ([`prom_name`]); [`parse_exposition`] parses the format back for
//! round-trip gates.
//!
//! [`Registry::snapshot`] samples the allocator ([`crate::mem`]) into
//! built-in `mem.*` / `proc.*` series of the registry it snapshots, so a
//! scrape always carries live/peak allocation without anyone having to
//! update them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::LogHistogram;

/// Default ring length for windowed histograms (epochs of rolling view).
pub const DEFAULT_WINDOW: usize = 8;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotonic counter handle (cheap to clone; all clones share the cell).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle: an `f64` stored as bits in an atomic.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A cumulative [`LogHistogram`] plus a ring of per-epoch windows for
/// rolling quantiles. Mergeable counts everywhere; rotating is O(1).
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    ring: Vec<LogHistogram>,
    cur: usize,
    epoch: u64,
    total: LogHistogram,
}

impl WindowedHistogram {
    /// `window` epochs of rolling view (clamped to at least 1).
    pub fn new(window: usize) -> WindowedHistogram {
        WindowedHistogram {
            ring: vec![LogHistogram::new(); window.max(1)],
            cur: 0,
            epoch: 0,
            total: LogHistogram::new(),
        }
    }

    pub fn observe(&mut self, x: f64) {
        self.ring[self.cur].observe(x);
        self.total.observe(x);
    }

    pub fn observe_u64(&mut self, x: u64) {
        self.observe(x as f64);
    }

    /// Rotate to the next epoch: the oldest window is cleared and becomes
    /// current. Rolling views now cover the last `window` epochs again.
    pub fn advance(&mut self) {
        self.cur = (self.cur + 1) % self.ring.len();
        self.ring[self.cur] = LogHistogram::new();
        self.epoch += 1;
    }

    /// Epochs advanced so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn window(&self) -> usize {
        self.ring.len()
    }

    /// Merge of the ring: the distribution over the last `window` epochs.
    pub fn rolling(&self) -> LogHistogram {
        let mut m = LogHistogram::new();
        for h in &self.ring {
            m.merge(h);
        }
        m
    }

    /// Cumulative distribution since creation.
    pub fn total(&self) -> &LogHistogram {
        &self.total
    }
}

/// Histogram handle: observations go to the current window and the
/// cumulative total.
#[derive(Clone, Debug)]
pub struct Hist(Arc<Mutex<WindowedHistogram>>);

impl Hist {
    pub fn observe(&self, x: f64) {
        lock(&self.0).observe(x);
    }

    pub fn observe_u64(&self, x: u64) {
        lock(&self.0).observe(x as f64);
    }

    /// Clone out the current windowed state.
    pub fn read(&self) -> WindowedHistogram {
        lock(&self.0).clone()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

type LabelSet = Vec<(String, String)>;

#[derive(Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<Mutex<WindowedHistogram>>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Hist(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<(String, LabelSet), Instrument>>,
    /// [`Registry::advance_epoch`] calls so far.
    epoch: AtomicU64,
}

/// A set of named series. Cheap to clone: all clones share one registry,
/// like the instrument handles it hands out.
#[derive(Clone, Default)]
pub struct Registry(Arc<RegistryInner>);

/// Non-poisoning lock: telemetry must keep working after an unrelated
/// panic on some other thread (a `#[should_panic]` test, a dying worker).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn canonical_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut v: LabelSet = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v.dedup_by(|a, b| a.0 == b.0);
    v
}

fn kind_mismatch(name: &str, found: &Instrument) -> ! {
    panic!(
        "telemetry metric {name:?} already registered as {}",
        found.kind()
    )
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Look up `(name, labels)`, inserting `make()` on first registration.
    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = (name.to_string(), canonical_labels(labels));
        lock(&self.0.metrics)
            .entry(key)
            .or_insert_with(make)
            .clone()
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Instrument::Counter(Arc::default())) {
            Instrument::Counter(c) => Counter(c),
            other => kind_mismatch(name, &other),
        }
    }

    /// Register (or look up) a gauge series (starts at `0.0`).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || Instrument::Gauge(Arc::default())) {
            Instrument::Gauge(g) => Gauge(g),
            other => kind_mismatch(name, &other),
        }
    }

    /// Register (or look up) a windowed-histogram series with
    /// [`DEFAULT_WINDOW`] epochs of rolling view.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        let make =
            || Instrument::Hist(Arc::new(Mutex::new(WindowedHistogram::new(DEFAULT_WINDOW))));
        match self.register(name, labels, make) {
            Instrument::Hist(h) => Hist(h),
            other => kind_mismatch(name, &other),
        }
    }

    /// Rotate every registered windowed histogram to its next epoch and
    /// bump the registry epoch (exposed as `telemetry.epoch`).
    pub fn advance_epoch(&self) -> u64 {
        for inst in lock(&self.0.metrics).values() {
            if let Instrument::Hist(h) = inst {
                lock(h).advance();
            }
        }
        self.0.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// [`advance_epoch`](Self::advance_epoch) calls so far.
    pub fn epoch(&self) -> u64 {
        self.0.epoch.load(Ordering::Relaxed)
    }

    /// Sample the allocator and process into the built-in series, so every
    /// snapshot carries live memory telemetry (`diy::mem` is the source).
    fn sample_process(&self) {
        let m = crate::mem::stats();
        let (rss_kb, hwm_kb) = crate::mem::proc_status_kb();
        for (name, v) in [
            ("mem.live_bytes", m.live_bytes),
            ("mem.peak_live_bytes", m.peak_live_bytes),
            ("mem.alloc_bytes_total", m.alloc_bytes_total),
            ("mem.alloc_count", m.alloc_count),
            ("proc.vm_rss_kb", rss_kb),
            ("proc.vm_hwm_kb", hwm_kb),
            ("telemetry.epoch", self.epoch()),
        ] {
            self.gauge(name, &[]).set_u64(v);
        }
    }

    /// Snapshot every registered series (sorted by name, then labels).
    /// Samples the built-in `mem.*` / `proc.*` gauges first so they are
    /// always fresh.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.sample_process();
        lock(&self.0.metrics)
            .iter()
            .map(|((name, labels), inst)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                value: match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Instrument::Gauge(g) => {
                        MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Instrument::Hist(h) => MetricValue::Hist(hist_snapshot(&lock(h))),
                },
            })
            .collect()
    }

    /// Snapshot the registry and render Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        render_prometheus_from(&self.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time value of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Cumulative sample count / sum / extrema since registration.
    pub n: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Cumulative quantiles (log2-bucket representatives).
    pub p50: f64,
    pub p99: f64,
    /// Rolling view over the last `window` epochs.
    pub rolling_n: u64,
    pub rolling_p50: f64,
    pub rolling_p99: f64,
    pub window: usize,
}

/// Point-in-time value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Hist(HistSnapshot),
}

/// One `(name, labels, value)` row of a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    pub name: String,
    pub labels: LabelSet,
    pub value: MetricValue,
}

fn q_or_zero(h: &LogHistogram, q: f64) -> f64 {
    let v = h.quantile(q);
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn hist_snapshot(w: &WindowedHistogram) -> HistSnapshot {
    let total = w.total();
    let rolling = w.rolling();
    HistSnapshot {
        n: total.n(),
        sum: total.sum(),
        min: if total.n() == 0 { 0.0 } else { total.min() },
        max: if total.n() == 0 { 0.0 } else { total.max() },
        p50: q_or_zero(total, 0.5),
        p99: q_or_zero(total, 0.99),
        rolling_n: rolling.n(),
        rolling_p50: q_or_zero(&rolling, 0.5),
        rolling_p99: q_or_zero(&rolling, 0.99),
        window: w.window(),
    }
}

// ---------------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------------

/// Sanitize a metric name for the Prometheus exposition charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other byte becomes `_` and a
/// leading digit gains a `_` prefix.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
            continue;
        }
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn prom_label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `{k="v",...}` with an optional extra pair appended; empty labels (and
/// no extra) render as the empty string.
fn prom_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_label_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// `f64` in the shortest form that round-trips through `parse::<f64>()`
/// (Rust's float `Display` guarantees this).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// Render a snapshot as Prometheus text exposition.
pub fn render_prometheus_from(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_typed = String::new();
    for s in samples {
        let name = prom_name(&s.name);
        match &s.value {
            MetricValue::Counter(v) => {
                if last_typed != name {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    last_typed = name.clone();
                }
                out.push_str(&format!("{name}{} {v}\n", prom_labels(&s.labels, None)));
            }
            MetricValue::Gauge(v) => {
                if last_typed != name {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    last_typed = name.clone();
                }
                out.push_str(&format!(
                    "{name}{} {}\n",
                    prom_labels(&s.labels, None),
                    fmt_f64(*v)
                ));
            }
            MetricValue::Hist(h) => {
                if last_typed != name {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    last_typed = name.clone();
                }
                // Rolling quantiles (the live view), cumulative count/sum.
                out.push_str(&format!(
                    "{name}{} {}\n",
                    prom_labels(&s.labels, Some(("quantile", "0.5"))),
                    fmt_f64(h.rolling_p50)
                ));
                out.push_str(&format!(
                    "{name}{} {}\n",
                    prom_labels(&s.labels, Some(("quantile", "0.99"))),
                    fmt_f64(h.rolling_p99)
                ));
                out.push_str(&format!(
                    "{name}_sum{} {}\n",
                    prom_labels(&s.labels, None),
                    fmt_f64(h.sum)
                ));
                out.push_str(&format!(
                    "{name}_count{} {}\n",
                    prom_labels(&s.labels, None),
                    h.n
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Exposition parser (round-trip gate)
// ---------------------------------------------------------------------------

/// One parsed exposition sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoSample {
    pub name: String,
    pub labels: LabelSet,
    pub value: f64,
}

/// Parse Prometheus text exposition back into samples. Comment (`#`) and
/// blank lines are skipped; malformed lines are errors. This is the gate
/// that proves [`Registry::render_prometheus`] emits the format it claims to.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpoSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("exposition line {}: {m}: {raw:?}", lineno + 1);
        let (series, value_str) = match line.rfind('}') {
            Some(close) => {
                let rest = line[close + 1..].trim();
                (&line[..=close], rest)
            }
            None => line
                .split_once(char::is_whitespace)
                .map(|(a, b)| (a, b.trim()))
                .ok_or_else(|| err("missing value"))?,
        };
        let (name, labels) = match series.find('{') {
            Some(open) => {
                if !series.ends_with('}') {
                    return Err(err("unterminated label set"));
                }
                let name = &series[..open];
                let body = &series[open + 1..series.len() - 1];
                (name, parse_labels(body).map_err(|m| err(&m))?)
            }
            None => (series, Vec::new()),
        };
        if name.is_empty()
            || !name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
        {
            return Err(err("bad metric name"));
        }
        let value: f64 = value_str.parse().map_err(|_| err("bad value"))?;
        out.push(ExpoSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

fn parse_labels(body: &str) -> Result<LabelSet, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // skip separators / trailing comma
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label key".into());
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?}: expected opening quote"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("label {key:?}: bad escape {other:?}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => value.push(c),
            }
        }
        if !closed {
            return Err(format!("label {key:?}: unterminated value"));
        }
        labels.push((key, value));
    }
    labels.sort();
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("unit.counter", &[("k", "v")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same (name, labels) → same cell, through any clone of the registry
        assert_eq!(reg.clone().counter("unit.counter", &[("k", "v")]).get(), 5);
        // another registry is another set of series
        assert_eq!(
            Registry::new().counter("unit.counter", &[("k", "v")]).get(),
            0
        );
        let g = reg.gauge("unit.gauge", &[]);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_u64(7);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn labels_are_canonicalized() {
        let reg = Registry::new();
        let a = reg.counter("lbl", &[("b", "2"), ("a", "1")]);
        a.add(3);
        let b = reg.counter("lbl", &[("a", "1"), ("b", "2")]);
        assert_eq!(b.get(), 3, "label order must not split the series");
        let other = reg.counter("lbl", &[("a", "1"), ("b", "9")]);
        assert_eq!(other.get(), 0, "different values are a different series");
    }

    #[test]
    #[should_panic(expected = "already registered as counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn windowed_histogram_rolls_off_old_epochs() {
        let mut w = WindowedHistogram::new(2);
        w.observe(1000.0);
        assert_eq!(w.rolling().n(), 1);
        w.advance();
        w.observe(2.0);
        assert_eq!(w.rolling().n(), 2, "previous epoch still in window");
        w.advance();
        w.observe(2.0);
        let r = w.rolling();
        assert_eq!(r.n(), 2, "1000.0 aged out of the 2-epoch window");
        assert!(r.quantile(0.99) < 4.0);
        assert_eq!(w.total().n(), 3, "cumulative keeps everything");
        assert_eq!(w.epoch(), 2);
    }

    #[test]
    fn exposition_roundtrips_counters_gauges_hists() {
        let reg = Registry::new();
        reg.counter("expo.counter", &[("kind", "a b")]).add(42);
        reg.gauge("expo.gauge", &[]).set(1.5);
        let h = reg.histogram("expo.hist", &[("kind", "x")]);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let text = reg.render_prometheus();
        let parsed = parse_exposition(&text).expect("exposition parses");
        let find = |name: &str, labels: &[(&str, &str)]| -> f64 {
            let want: LabelSet = labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            parsed
                .iter()
                .find(|s| s.name == name && s.labels == want)
                .unwrap_or_else(|| panic!("{name} {labels:?} in {text}"))
                .value
        };
        assert_eq!(find("expo_counter", &[("kind", "a b")]), 42.0);
        assert_eq!(find("expo_gauge", &[]), 1.5);
        assert_eq!(find("expo_hist_count", &[("kind", "x")]), 100.0);
        assert_eq!(find("expo_hist_sum", &[("kind", "x")]), 5050.0);
        let p50 = find("expo_hist", &[("kind", "x"), ("quantile", "0.5")]);
        assert!(p50 > 0.0);
    }

    #[test]
    fn every_scalar_series_of_a_snapshot_survives_the_exposition() {
        // One snapshot of the whole registry (its own series plus the
        // sampled `mem.*` / `proc.*` gauges): rendering and re-parsing it
        // must keep every counter and gauge with its exact value.
        let reg = Registry::new();
        reg.counter("all.counter", &[]).inc();
        reg.advance_epoch();
        let samples = reg.snapshot();
        for builtin in ["mem.live_bytes", "mem.peak_live_bytes", "telemetry.epoch"] {
            assert!(samples.iter().any(|s| s.name == builtin), "{builtin}");
        }
        let parsed = parse_exposition(&render_prometheus_from(&samples)).expect("parses");
        let mut scalars = 0;
        for s in &samples {
            let want = match s.value {
                MetricValue::Counter(v) => v as f64,
                MetricValue::Gauge(v) => v,
                MetricValue::Hist(_) => continue,
            };
            let (name, labels) = (
                prom_name(&s.name),
                s.labels
                    .iter()
                    .map(|(k, v)| (prom_name(k), v.clone()))
                    .collect::<LabelSet>(),
            );
            let hit = parsed
                .iter()
                .find(|p| p.name == name && p.labels == labels)
                .unwrap_or_else(|| panic!("series {name} {labels:?} lost in the exposition"));
            assert_eq!(hit.value, want, "series {name} value drifted");
            scalars += 1;
        }
        assert!(scalars > 0);
        let epoch = parsed.iter().find(|p| p.name == "telemetry_epoch");
        assert_eq!(epoch.map(|p| p.value), Some(1.0));
    }

    #[test]
    fn exposition_escapes_label_values() {
        let reg = Registry::new();
        reg.counter("esc.counter", &[("path", "a\\b\"c\nd")]).inc();
        let samples: Vec<MetricSample> = reg
            .snapshot()
            .into_iter()
            .filter(|s| s.name == "esc.counter")
            .collect();
        let text = render_prometheus_from(&samples);
        let parsed = parse_exposition(&text).expect("escaped exposition parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].labels[0].1, "a\\b\"c\nd");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "no_value",
            "1leading_digit 3",
            "name{unterminated 3",
            "name{k=\"v} 3",
            "name{k=v\"} 3",
            "name{=\"v\"} 3",
            "name xyz",
            "na-me 3",
        ] {
            assert!(parse_exposition(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse_exposition("# comment\n\nok_name 3\n").is_ok());
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("service.latency_ns"), "service_latency_ns");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b c"), "a_b_c");
        assert_eq!(prom_name("ok_name:x2"), "ok_name:x2");
    }

    #[test]
    fn advance_epoch_rotates_registered_hists() {
        let reg = Registry::new();
        let h = reg.histogram("adv.hist", &[]);
        h.observe(4.0);
        for _ in 0..DEFAULT_WINDOW {
            reg.advance_epoch();
        }
        assert_eq!(reg.epoch(), DEFAULT_WINDOW as u64);
        let w = h.read();
        assert_eq!(w.rolling().n(), 0, "sample aged out after window epochs");
        assert_eq!(w.total().n(), 1);
    }
}
