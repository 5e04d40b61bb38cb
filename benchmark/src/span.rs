//! Spans recorded by the benchmark itself, around each call it makes into
//! a layer of the program. Kept in memory per thread (no locks on the
//! measured path), merged and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span names are the layer names of README.md; `ROOT` brackets the traced
/// part of a thread's work and is what the layer self times must tile.
pub const ROOT: &str = "workload";
pub const L_SIM: &str = "hacc::sim";
pub const L_COMM: &str = "diy::comm";
pub const L_GHOST: &str = "tess::ghost";
pub const L_BLOCK: &str = "tess::block";
pub const L_IO: &str = "tess::io";
pub const L_POST: &str = "postprocess";
pub const L_SERVICE: &str = "tess::service";
/// A client's pause between windows of requests: not a layer, but time
/// the benchmark spends on purpose.
pub const L_THINK: &str = "think";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Recording thread (rank or client number).
    pub tid: u32,
    /// What the span worked on: step, block gid or request id. Spans of
    /// one request share it.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's recorder. The parent of a new span is whichever span the
/// thread has open; a disabled recorder records nothing and costs a branch.
pub struct Recorder {
    enabled: bool,
    tid: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so that their
    /// timelines align.
    pub fn new(enabled: bool, tid: u32, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            tid,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tid: self.tid,
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("close without an open span");
        self.spans[i].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, id);
        let r = f();
        self.close();
        r
    }
}

/// Concatenate the recorders' spans, re-basing parent indices.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut out = Vec::new();
    for r in recorders {
        assert!(
            r.open.is_empty(),
            "recorder {} merged with open spans",
            r.tid
        );
        let base = out.len();
        out.extend(r.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted twice,
/// and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-thread, per-name totals of self time.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// `(tid, name)` → `(spans, self nanoseconds)`.
    by_thread: BTreeMap<(u32, &'static str), (u64, u64)>,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = t.by_thread.entry((s.tid, s.name)).or_default();
            e.0 += 1;
            e.1 += own;
        }
        t
    }

    /// `(spans, self seconds)` of `name` on each thread that recorded it.
    fn of_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.by_thread
            .iter()
            .filter(move |((_, n), _)| *n == name)
            .map(|(_, &(count, ns))| (count, ns as f64 * 1e-9))
    }

    /// Self seconds of `name` on the thread that spent most in it: with
    /// one thread per rank, the rank that sets the wall clock.
    pub fn max_s(&self, name: &str) -> f64 {
        self.of_name(name).map(|(_, s)| s).fold(0.0, f64::max)
    }

    /// Self seconds of `name` summed over threads.
    pub fn sum_s(&self, name: &str) -> f64 {
        self.of_name(name).map(|(_, s)| s).sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.of_name(name).map(|(n, _)| n).sum()
    }
}

/// How far the layer self times are from tiling the traced wall: the
/// largest share of any [`ROOT`] span that no child span accounts for.
pub fn tiling_error(spans: &[Span]) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == ROOT && s.dur_ns() > 0)
        .map(|(s, own)| own as f64 / s.dur_ns() as f64)
        .fold(0.0, f64::max)
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete event per
/// span, one track per recording thread.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tid: 0,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span(L_GHOST, 10, 30, Some(0)),
            span(L_BLOCK, 30, 90, Some(0)),
            span(L_COMM, 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        assert!((tiling_error(&spans) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span(ROOT, 100, 200, None),
            span(L_SERVICE, 90, 150, Some(0)), // starts before the parent
            span(L_SERVICE, 140, 180, Some(0)), // overlaps its sibling
            span(L_SERVICE, 190, 260, Some(0)), // ends after the parent
        ];
        // covered: [100,150) ∪ [150,180) ∪ [190,200) = 90
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn totals_pick_the_slowest_thread() {
        let mut a = span(L_BLOCK, 0, 70, None);
        a.tid = 0;
        let mut b = span(L_BLOCK, 0, 40, None);
        b.tid = 1;
        let mut c = span(L_BLOCK, 50, 60, None);
        c.tid = 1;
        let t = Totals::of(&[a, b, c]);
        assert!((t.max_s(L_BLOCK) - 70e-9).abs() < 1e-15);
        assert!((t.sum_s(L_BLOCK) - 120e-9).abs() < 1e-15);
        assert_eq!(t.count(L_BLOCK), 3);
        assert_eq!(t.max_s(L_IO), 0.0);
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut r0 = Recorder::new(true, 0, epoch);
        r0.open(ROOT, 0);
        r0.scope(L_SIM, 1, || ());
        r0.close();
        let mut r1 = Recorder::new(true, 1, epoch);
        r1.open(ROOT, 0);
        r1.scope(L_IO, 2, || ());
        r1.close();
        let spans = merge(vec![r0, r1]);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].tid, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = chrome_trace_json("t", &spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 0, Instant::now());
        r.open(ROOT, 0);
        assert_eq!(r.scope(L_SIM, 0, || 5), 5);
        r.close();
        assert!(merge(vec![r]).is_empty());
    }
}
