//! Structured per-rank observability: named phase spans and transport
//! counters, mergeable into a global [`RunReport`].
//!
//! The paper's Table II breaks the in-situ run into phases (simulation,
//! particle exchange, Voronoi computation, output) and attributes time and
//! communication volume to each. This module is the machinery behind that
//! breakdown:
//!
//! * **Phase spans** — RAII guards ([`MetricsHandle::phase`]) backed by the
//!   per-thread CPU clock ([`crate::timing`]). Spans nest; a phase's CPU
//!   time is *inclusive* of its children, so sibling spans tile their
//!   parent.
//! * **Transport counters** — every byte that crosses a rank boundary
//!   through [`crate::comm::World`] (point-to-point sends and receives,
//!   plus every collective built on them) is counted against the innermost
//!   open phase of the rank doing the sending or receiving, and against the
//!   message tag. The local self-delivery inside `all_to_all` is counted on
//!   both sides so global send/receive totals stay conserved.
//! * **Reduction** — a rank's snapshot ([`MetricsHandle::snapshot`]) is
//!   already a one-rank [`RunReport`]; [`collect_report`] merges every
//!   rank's snapshot up the existing reduction tree into one report:
//!   per-phase CPU max (the critical path) and sum, message/byte totals,
//!   and per-tag traffic. The report is [`Encode`]/[`Decode`]
//!   round-trippable and serializes to JSON ([`RunReport::to_json`]).
//!
//! Per-tag traffic lives only here, exact and per run; the live registry
//! of [`crate::telemetry`] belongs to a resident service and mirrors none
//! of it.
//!
//! ## Invariants the report exposes
//!
//! * **Conservation** — for every tag, global messages and bytes sent equal
//!   messages and bytes received ([`RunReport::is_conserved`]). A violation
//!   means a message was dropped or double-counted — a transport bug.
//! * **Determinism** — at a fixed rank count the counter portion of the
//!   report is identical run to run; [`RunReport::normalized`] zeroes the
//!   (inherently noisy) CPU fields so two reports can be compared exactly.
//!
//! Counters are attributed when a message is *consumed*, not when it is
//! buffered, so a receive that arrives early is still charged to the phase
//! that waited for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::comm::World;
use crate::hist::LogHistogram;
use crate::timing::thread_cpu_time;
use crate::trace::{
    monotonic_ns, trace_mode, Event, EventKind, RankTrace, TraceMode, TraceState, NO_NAME, TID_MAIN,
};

/// Phase name charged with activity that happens outside any open span.
pub const UNPHASED: &str = "(unphased)";

/// Histogram name under which every rank's message sizes are recorded.
pub const HIST_MSG_BYTES: &str = "comm.msg_bytes";

/// How many slowest cells a rank (and the merged report) retains.
pub const TOP_SLOW_CELLS: usize = 8;

/// Counters accumulated by one rank for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Inclusive thread-CPU seconds spent inside this span.
    pub cpu_s: f64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
    /// Collective rounds entered (barriers plus tag-allocating collectives).
    pub collectives: u64,
}

#[derive(Default)]
struct Inner {
    /// Rank this handle belongs to (0 until `Runtime::run` wires it).
    rank: u64,
    /// Open spans, innermost last: (name, thread-CPU at entry, external
    /// CPU seconds credited to the span while it was open).
    stack: Vec<(String, f64, f64)>,
    phases: BTreeMap<String, Counters>,
    /// tag → (messages, bytes) on the send side.
    sent_by_tag: BTreeMap<u64, (u64, u64)>,
    /// tag → (messages, bytes) on the receive side.
    recv_by_tag: BTreeMap<u64, (u64, u64)>,
    /// The flight recorder (active only when [`trace_mode`] says so).
    trace: TraceState,
    /// Named distribution histograms ([`MetricsHandle::observe`]).
    hists: BTreeMap<String, LogHistogram>,
    /// Sizes of every message sent by this rank ([`HIST_MSG_BYTES`]).
    msg_bytes: LogHistogram,
    /// Slowest cells seen by this rank, descending, ≤ [`TOP_SLOW_CELLS`].
    slow: Vec<SlowCell>,
}

impl Inner {
    fn current(&mut self) -> &mut Counters {
        let key = self
            .stack
            .last()
            .map(|(n, _, _)| n.clone())
            .unwrap_or_else(|| UNPHASED.to_string());
        self.phases.entry(key).or_default()
    }
}

/// Cloneable handle to one rank's metrics. Stored inside [`World`];
/// cloning is cheap (`Rc`), so a [`PhaseGuard`] can outlive any borrow of
/// the `World` it came from.
#[derive(Clone, Default)]
pub struct MetricsHandle(Rc<RefCell<Inner>>);

impl MetricsHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a named span; it closes (and records its inclusive thread-CPU
    /// time) when the returned guard drops. Guards must drop in LIFO order
    /// — let scopes do it.
    pub fn phase(&self, name: impl Into<String>) -> PhaseGuard {
        let name = name.into();
        let mut m = self.0.borrow_mut();
        if trace_mode() >= TraceMode::Spans {
            let idx = m.trace.intern(&name);
            m.trace.push(Event {
                t_ns: monotonic_ns(),
                kind: EventKind::SpanBegin,
                tid: TID_MAIN,
                name: idx,
                a: 0,
                b: 0,
            });
        }
        m.stack.push((name, thread_cpu_time(), 0.0));
        drop(m);
        PhaseGuard {
            handle: self.clone(),
        }
    }

    /// Credit CPU seconds spent *outside this thread* (worker-pool threads
    /// computing on the rank's behalf) to the innermost open span. Spans
    /// time themselves with the per-thread CPU clock, so pool work would
    /// otherwise vanish from the phase accounting. The credit propagates to
    /// every enclosing span as the stack unwinds, preserving the inclusive
    /// span semantics the tiling invariant relies on. With no span open,
    /// the time lands on [`UNPHASED`].
    pub fn add_external_cpu(&self, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let mut m = self.0.borrow_mut();
        match m.stack.last_mut() {
            Some((_, _, external)) => *external += seconds,
            None => m.phases.entry(UNPHASED.to_string()).or_default().cpu_s += seconds,
        }
    }

    pub(crate) fn on_send(&self, tag: u64, len: usize) {
        let mut m = self.0.borrow_mut();
        let c = m.current();
        c.msgs_sent += 1;
        c.bytes_sent += len as u64;
        let e = m.sent_by_tag.entry(tag).or_default();
        e.0 += 1;
        e.1 += len as u64;
        m.msg_bytes.observe_u64(len as u64);
        if trace_mode() == TraceMode::Full {
            m.trace.push(Event {
                t_ns: monotonic_ns(),
                kind: EventKind::MsgSend,
                tid: TID_MAIN,
                name: NO_NAME,
                a: tag,
                b: len as u64,
            });
        }
    }

    pub(crate) fn on_recv(&self, tag: u64, len: usize) {
        let mut m = self.0.borrow_mut();
        let c = m.current();
        c.msgs_recv += 1;
        c.bytes_recv += len as u64;
        let e = m.recv_by_tag.entry(tag).or_default();
        e.0 += 1;
        e.1 += len as u64;
        if trace_mode() == TraceMode::Full {
            m.trace.push(Event {
                t_ns: monotonic_ns(),
                kind: EventKind::MsgRecv,
                tid: TID_MAIN,
                name: NO_NAME,
                a: tag,
                b: len as u64,
            });
        }
    }

    pub(crate) fn on_collective(&self) {
        self.0.borrow_mut().current().collectives += 1;
    }

    pub(crate) fn set_rank(&self, rank: u64) {
        self.0.borrow_mut().rank = rank;
    }

    /// Record one sample into the named distribution histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut m = self.0.borrow_mut();
        m.hists.entry(name.to_string()).or_default().observe(value);
    }

    /// Merge a whole pre-accumulated histogram into the named one (how the
    /// tessellation driver hands over per-block cell distributions).
    pub fn merge_hist(&self, name: &str, h: &LogHistogram) {
        let mut m = self.0.borrow_mut();
        m.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Drop an instant marker (e.g. a ghost-round boundary) into the trace.
    /// No-op below `spans` mode.
    pub fn mark(&self, name: &str, value: u64) {
        if trace_mode() < TraceMode::Spans {
            return;
        }
        let mut m = self.0.borrow_mut();
        let idx = m.trace.intern(name);
        m.trace.push(Event {
            t_ns: monotonic_ns(),
            kind: EventKind::Mark,
            tid: TID_MAIN,
            name: idx,
            a: value,
            b: 0,
        });
    }

    /// Record a counter sample into the trace. No-op below `full` mode.
    pub fn counter(&self, name: &str, value: u64) {
        if trace_mode() != TraceMode::Full {
            return;
        }
        let mut m = self.0.borrow_mut();
        let idx = m.trace.intern(name);
        m.trace.push(Event {
            t_ns: monotonic_ns(),
            kind: EventKind::Counter,
            tid: TID_MAIN,
            name: idx,
            a: value,
            b: 0,
        });
    }

    /// Offer `(compute_ns, particle_id)` pairs from block `gid` to the
    /// rank's slowest-cell leaderboard (keeps the top
    /// [`TOP_SLOW_CELLS`]).
    pub fn note_slow_cells(&self, gid: u64, cells: &[(u64, u64)]) {
        if cells.is_empty() {
            return;
        }
        let mut m = self.0.borrow_mut();
        let rank = m.rank;
        m.slow.extend(cells.iter().map(|&(ns, particle)| SlowCell {
            ns,
            gid,
            particle,
            rank,
        }));
        m.slow.sort_by_key(slow_cell_key);
        m.slow.truncate(TOP_SLOW_CELLS);
    }

    /// Record pool chunk tasks `(worker, start_ns, end_ns, chunk)` as trace
    /// events on per-worker tracks (tid `1 + worker`; worker 0 is the
    /// submitting thread).
    pub fn add_pool_tasks(&self, tasks: impl IntoIterator<Item = (u32, u64, u64, u64)>) {
        let mut m = self.0.borrow_mut();
        for (worker, start_ns, end_ns, chunk) in tasks {
            m.trace.push(Event {
                t_ns: start_ns,
                kind: EventKind::PoolTask,
                tid: 1 + worker,
                name: NO_NAME,
                a: end_ns.saturating_sub(start_ns),
                b: chunk,
            });
        }
    }

    /// Detach a copy of the flight-recorder buffer for this rank.
    pub fn trace_snapshot(&self, rank: u64) -> RankTrace {
        self.0.borrow().trace.snapshot(rank)
    }

    /// This rank's accumulated metrics as a one-rank [`RunReport`] (max =
    /// sum = this rank's time). Open spans contribute only activity
    /// recorded so far (their CPU time lands when they close).
    pub fn snapshot(&self) -> RunReport {
        let m = self.0.borrow();
        let mut hists = m.hists.clone();
        if m.msg_bytes != LogHistogram::default() {
            hists
                .entry(HIST_MSG_BYTES.to_string())
                .or_default()
                .merge(&m.msg_bytes);
        }
        let mut tag_set: std::collections::BTreeSet<u64> = m.sent_by_tag.keys().copied().collect();
        tag_set.extend(m.recv_by_tag.keys().copied());
        let tags = tag_set
            .into_iter()
            .map(|tag| {
                let s = m.sent_by_tag.get(&tag).copied().unwrap_or_default();
                let r = m.recv_by_tag.get(&tag).copied().unwrap_or_default();
                TagTraffic {
                    tag,
                    msgs_sent: s.0,
                    bytes_sent: s.1,
                    msgs_recv: r.0,
                    bytes_recv: r.1,
                }
            })
            .collect();
        RunReport {
            nranks: 1,
            phases: m
                .phases
                .iter()
                .map(|(name, c)| PhaseReport::of_rank(name, m.rank, c))
                .collect(),
            tags,
            hists: hists
                .into_iter()
                .map(|(name, hist)| NamedHist { name, hist })
                .collect(),
            slow_cells: m.slow.clone(),
            memory: MemStats::sample(),
        }
    }

    /// Sample the process memory gauges into the flight recorder as
    /// counter tracks (`mem.live_bytes`, `mem.peak_live_bytes`). No-op
    /// below full trace mode, like every counter.
    pub fn sample_mem_counters(&self) {
        if trace_mode() != TraceMode::Full {
            return;
        }
        let a = crate::mem::stats();
        self.counter("mem.live_bytes", a.live_bytes);
        self.counter("mem.peak_live_bytes", a.peak_live_bytes);
    }
}

/// Total order for slowest-cell rankings: larger `ns` first, ties broken by
/// ids so top-k truncation stays associative under merge.
fn slow_cell_key(c: &SlowCell) -> (std::cmp::Reverse<u64>, u64, u64, u64) {
    (std::cmp::Reverse(c.ns), c.gid, c.particle, c.rank)
}

/// Closes its span on drop; see [`MetricsHandle::phase`].
pub struct PhaseGuard {
    handle: MetricsHandle,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let mut m = self.handle.0.borrow_mut();
        let (name, start, external) = m.stack.pop().expect("phase guards drop in LIFO order");
        let dt = thread_cpu_time() - start + external;
        // Spans are inclusive: a parent's time covers its children, so the
        // external credit must bubble up through every enclosing span.
        if let Some((_, _, parent_external)) = m.stack.last_mut() {
            *parent_external += external;
        }
        if trace_mode() >= TraceMode::Spans {
            let idx = m.trace.intern(&name);
            m.trace.push(Event {
                t_ns: monotonic_ns(),
                kind: EventKind::SpanEnd,
                tid: TID_MAIN,
                name: idx,
                a: 0,
                b: 0,
            });
        }
        m.phases.entry(name).or_default().cpu_s += dt;
    }
}

/// One anomalously slow Voronoi cell: where it lives and how long its
/// candidate search took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowCell {
    /// Wall-clock nanoseconds spent computing the cell.
    pub ns: u64,
    /// Block gid owning the cell.
    pub gid: u64,
    /// Particle (site) id of the cell.
    pub particle: u64,
    /// Rank that computed it.
    pub rank: u64,
}

impl Encode for SlowCell {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ns.encode(buf);
        self.gid.encode(buf);
        self.particle.encode(buf);
        self.rank.encode(buf);
    }
}

impl Decode for SlowCell {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SlowCell {
            ns: u64::decode(r)?,
            gid: u64::decode(r)?,
            particle: u64::decode(r)?,
            rank: u64::decode(r)?,
        })
    }
}

/// A named distribution in a merged [`RunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NamedHist {
    pub name: String,
    pub hist: LogHistogram,
}

impl Encode for NamedHist {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.hist.encode(buf);
    }
}

impl Decode for NamedHist {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NamedHist {
            name: String::decode(r)?,
            hist: LogHistogram::decode(r)?,
        })
    }
}

/// Process-wide memory accounting sampled into a rank snapshot: the
/// [`crate::mem`] allocator counters plus Linux RSS. Every rank of a
/// threads-as-ranks runtime shares one process, so these are *process*
/// values and merge across ranks with an elementwise max, never a sum.
/// All fields are timing-like (non-deterministic run to run), so
/// [`RunReport::normalized`] zeroes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Allocations since process start.
    pub alloc_count: u64,
    /// Cumulative bytes allocated since process start.
    pub alloc_bytes_total: u64,
    /// Bytes live at sample time.
    pub live_bytes: u64,
    /// Live-byte high-water mark (resettable; see [`crate::mem::reset_peak`]).
    pub peak_live_bytes: u64,
    /// Resident set size (kB) at sample time; 0 off Linux.
    pub rss_kb: u64,
    /// Process-lifetime resident-set high-water mark (kB); 0 off Linux.
    pub peak_rss_kb: u64,
}

impl MemStats {
    /// Sample the process-wide counters now.
    pub fn sample() -> MemStats {
        let a = crate::mem::stats();
        let (rss_kb, peak_rss_kb) = crate::mem::proc_status_kb();
        MemStats {
            alloc_count: a.alloc_count,
            alloc_bytes_total: a.alloc_bytes_total,
            live_bytes: a.live_bytes,
            peak_live_bytes: a.peak_live_bytes,
            rss_kb,
            peak_rss_kb,
        }
    }

    /// Elementwise max — associative and commutative, and the right
    /// reduction for process-global gauges sampled once per rank.
    pub fn merge(self, o: MemStats) -> MemStats {
        MemStats {
            alloc_count: self.alloc_count.max(o.alloc_count),
            alloc_bytes_total: self.alloc_bytes_total.max(o.alloc_bytes_total),
            live_bytes: self.live_bytes.max(o.live_bytes),
            peak_live_bytes: self.peak_live_bytes.max(o.peak_live_bytes),
            rss_kb: self.rss_kb.max(o.rss_kb),
            peak_rss_kb: self.peak_rss_kb.max(o.peak_rss_kb),
        }
    }
}

impl Encode for MemStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.alloc_count.encode(buf);
        self.alloc_bytes_total.encode(buf);
        self.live_bytes.encode(buf);
        self.peak_live_bytes.encode(buf);
        self.rss_kb.encode(buf);
        self.peak_rss_kb.encode(buf);
    }
}

impl Decode for MemStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MemStats {
            alloc_count: u64::decode(r)?,
            alloc_bytes_total: u64::decode(r)?,
            live_bytes: u64::decode(r)?,
            peak_live_bytes: u64::decode(r)?,
            rss_kb: u64::decode(r)?,
            peak_rss_kb: u64::decode(r)?,
        })
    }
}

/// Per-phase entry of a merged [`RunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    pub name: String,
    /// Max over ranks of inclusive thread-CPU seconds — the critical path.
    pub cpu_max_s: f64,
    /// Sum over ranks (total work).
    pub cpu_sum_s: f64,
    /// The rank that contributed `cpu_max_s` — where the imbalance lives.
    pub slowest_rank: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
    pub collectives: u64,
}

impl PhaseReport {
    /// One rank's counters for phase `name` (max = sum = its time).
    fn of_rank(name: &str, rank: u64, c: &Counters) -> PhaseReport {
        PhaseReport {
            name: name.to_string(),
            cpu_max_s: c.cpu_s,
            cpu_sum_s: c.cpu_s,
            slowest_rank: rank,
            msgs_sent: c.msgs_sent,
            bytes_sent: c.bytes_sent,
            msgs_recv: c.msgs_recv,
            bytes_recv: c.bytes_recv,
            collectives: c.collectives,
        }
    }

    /// Load imbalance: critical path over mean rank time (1.0 = perfectly
    /// balanced, `nranks` = one rank did everything).
    pub fn imbalance(&self, nranks: u64) -> f64 {
        if self.cpu_sum_s <= 0.0 || nranks == 0 {
            1.0
        } else {
            self.cpu_max_s / (self.cpu_sum_s / nranks as f64)
        }
    }
}

/// Global traffic for one message tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagTraffic {
    pub tag: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
}

/// The merged, run-level view: what Table II's columns are derived from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Ranks merged into this report.
    pub nranks: u64,
    /// Sorted by phase name.
    pub phases: Vec<PhaseReport>,
    /// Sorted by tag.
    pub tags: Vec<TagTraffic>,
    /// Named distributions (candidates/cell, message sizes, …), sorted by
    /// name; merged exactly across ranks.
    pub hists: Vec<NamedHist>,
    /// Global top-[`TOP_SLOW_CELLS`] slowest cells, descending.
    pub slow_cells: Vec<SlowCell>,
    /// Process-wide memory accounting, max-merged across ranks.
    pub memory: MemStats,
}

impl RunReport {
    /// Associative merge (both operands keep their lists sorted).
    pub fn merge(self, o: RunReport) -> RunReport {
        let mut phases: BTreeMap<String, PhaseReport> = self
            .phases
            .into_iter()
            .map(|p| (p.name.clone(), p))
            .collect();
        for p in o.phases {
            match phases.get_mut(&p.name) {
                Some(q) => {
                    // ties keep the left operand's rank, which keeps the
                    // merge associative
                    if p.cpu_max_s > q.cpu_max_s {
                        q.slowest_rank = p.slowest_rank;
                    }
                    q.cpu_max_s = q.cpu_max_s.max(p.cpu_max_s);
                    q.cpu_sum_s += p.cpu_sum_s;
                    q.msgs_sent = q.msgs_sent.saturating_add(p.msgs_sent);
                    q.bytes_sent = q.bytes_sent.saturating_add(p.bytes_sent);
                    q.msgs_recv = q.msgs_recv.saturating_add(p.msgs_recv);
                    q.bytes_recv = q.bytes_recv.saturating_add(p.bytes_recv);
                    q.collectives = q.collectives.saturating_add(p.collectives);
                }
                None => {
                    phases.insert(p.name.clone(), p);
                }
            }
        }
        let mut tags: BTreeMap<u64, TagTraffic> =
            self.tags.into_iter().map(|t| (t.tag, t)).collect();
        for t in o.tags {
            let e = tags.entry(t.tag).or_insert(TagTraffic {
                tag: t.tag,
                ..Default::default()
            });
            e.msgs_sent = e.msgs_sent.saturating_add(t.msgs_sent);
            e.bytes_sent = e.bytes_sent.saturating_add(t.bytes_sent);
            e.msgs_recv = e.msgs_recv.saturating_add(t.msgs_recv);
            e.bytes_recv = e.bytes_recv.saturating_add(t.bytes_recv);
        }
        let mut hists: BTreeMap<String, LogHistogram> =
            self.hists.into_iter().map(|h| (h.name, h.hist)).collect();
        for h in o.hists {
            hists.entry(h.name).or_default().merge(&h.hist);
        }
        let mut slow_cells = self.slow_cells;
        slow_cells.extend(o.slow_cells);
        slow_cells.sort_by_key(slow_cell_key);
        slow_cells.dedup();
        slow_cells.truncate(TOP_SLOW_CELLS);
        RunReport {
            nranks: self.nranks + o.nranks,
            phases: phases.into_values().collect(),
            tags: tags.into_values().collect(),
            hists: hists
                .into_iter()
                .map(|(name, hist)| NamedHist { name, hist })
                .collect(),
            slow_cells,
            memory: self.memory.merge(o.memory),
        }
    }

    /// Look up a named distribution histogram.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Critical-path seconds of one phase (0 if the phase never ran).
    pub fn cpu_max(&self, name: &str) -> f64 {
        self.phase(name).map_or(0.0, |p| p.cpu_max_s)
    }

    /// Phases whose name starts with `prefix`, in name order — e.g. the
    /// per-round `ghost_round:<n>` spans of the adaptive ghost exchange.
    pub fn phases_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a PhaseReport> + 'a {
        self.phases
            .iter()
            .filter(move |p| p.name.starts_with(prefix))
    }

    /// Global (messages sent, bytes sent) summed over the tags selected by
    /// `pred` — e.g. a protocol's whole tag namespace. Saturating, like
    /// [`traffic_totals`](Self::traffic_totals).
    pub fn tag_traffic_where(&self, pred: impl Fn(u64) -> bool) -> (u64, u64) {
        self.tags
            .iter()
            .filter(|t| pred(t.tag))
            .fold((0u64, 0u64), |a, t| {
                (
                    a.0.saturating_add(t.msgs_sent),
                    a.1.saturating_add(t.bytes_sent),
                )
            })
    }

    /// Global (messages sent, bytes sent, messages received, bytes
    /// received) over all tags. Saturating: a decoded report with
    /// adversarial counters must not panic the reader.
    pub fn traffic_totals(&self) -> (u64, u64, u64, u64) {
        self.tags.iter().fold((0u64, 0u64, 0u64, 0u64), |a, t| {
            (
                a.0.saturating_add(t.msgs_sent),
                a.1.saturating_add(t.bytes_sent),
                a.2.saturating_add(t.msgs_recv),
                a.3.saturating_add(t.bytes_recv),
            )
        })
    }

    /// Tags whose global send and receive totals disagree.
    pub fn conservation_violations(&self) -> Vec<TagTraffic> {
        self.tags
            .iter()
            .filter(|t| t.msgs_sent != t.msgs_recv || t.bytes_sent != t.bytes_recv)
            .copied()
            .collect()
    }

    /// True when every byte sent was received, tag by tag.
    pub fn is_conserved(&self) -> bool {
        self.conservation_violations().is_empty()
    }

    /// Copy with all CPU fields zeroed: the deterministic part of the
    /// report, equal across identical runs at the same rank count. Timing
    /// distributions (histogram names ending in `_ns`), slowest-rank
    /// attribution, and the slow-cell leaderboard are timing-derived, so
    /// they are stripped too; count-based histograms (message sizes,
    /// candidates per cell) stay.
    pub fn normalized(&self) -> RunReport {
        let mut r = self.clone();
        for p in &mut r.phases {
            p.cpu_max_s = 0.0;
            p.cpu_sum_s = 0.0;
            p.slowest_rank = 0;
        }
        r.hists.retain(|h| !h.name.ends_with("_ns"));
        r.slow_cells.clear();
        // memory gauges are as non-deterministic as CPU time
        r.memory = MemStats::default();
        r
    }

    /// JSON rendering. Tags are emitted as strings because collective tags
    /// use the top bit and would lose precision as JSON doubles.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"nranks\":{},", self.nranks));
        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cpu_max_s\":{},\"cpu_sum_s\":{},\"imbalance\":{},\
                 \"slowest_rank\":{},\
                 \"msgs_sent\":{},\"bytes_sent\":{},\"msgs_recv\":{},\"bytes_recv\":{},\
                 \"collectives\":{}}}",
                json_string(&p.name),
                json_f64(p.cpu_max_s),
                json_f64(p.cpu_sum_s),
                json_f64(p.imbalance(self.nranks)),
                p.slowest_rank,
                p.msgs_sent,
                p.bytes_sent,
                p.msgs_recv,
                p.bytes_recv,
                p.collectives,
            ));
        }
        out.push_str("],\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"hist\":{}}}",
                json_string(&h.name),
                h.hist.json_body()
            ));
        }
        out.push_str("],\"slow_cells\":[");
        for (i, c) in self.slow_cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ns\":{},\"gid\":{},\"particle\":{},\"rank\":{}}}",
                c.ns, c.gid, c.particle, c.rank
            ));
        }
        out.push_str("],\"tags\":[");
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tag\":\"{}\",\"msgs_sent\":{},\"bytes_sent\":{},\
                 \"msgs_recv\":{},\"bytes_recv\":{}}}",
                t.tag, t.msgs_sent, t.bytes_sent, t.msgs_recv, t.bytes_recv,
            ));
        }
        let (ms, bs, mr, br) = self.traffic_totals();
        out.push_str(&format!(
            "],\"totals\":{{\"msgs_sent\":{ms},\"bytes_sent\":{bs},\
             \"msgs_recv\":{mr},\"bytes_recv\":{br}}},"
        ));
        let m = &self.memory;
        out.push_str(&format!(
            "\"memory\":{{\"alloc_count\":{},\"alloc_bytes_total\":{},\
             \"live_bytes\":{},\"peak_live_bytes\":{},\
             \"rss_kb\":{},\"peak_rss_kb\":{}}},",
            m.alloc_count,
            m.alloc_bytes_total,
            m.live_bytes,
            m.peak_live_bytes,
            m.rss_kb,
            m.peak_rss_kb,
        ));
        out.push_str(&format!("\"conserved\":{}}}", self.is_conserved()));
        out
    }
}

/// Escape a string as a JSON token: the one escaper of the report,
/// histogram, Chrome-trace and structured-log renderers.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` as a valid JSON token (`null` for non-finite values).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that round-trips the value and
        // always includes a decimal point or exponent — valid JSON.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Snapshot every rank's metrics and merge them into one [`RunReport`]
/// (collective). The merge's own messages are recorded *after* the
/// snapshot, so the returned report does not observe itself.
pub fn collect_report(world: &mut World) -> RunReport {
    let local = world.metrics().snapshot();
    crate::reduce::all_reduce_merge(world, local, RunReport::merge)
}

impl Encode for PhaseReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.cpu_max_s.encode(buf);
        self.cpu_sum_s.encode(buf);
        self.slowest_rank.encode(buf);
        self.msgs_sent.encode(buf);
        self.bytes_sent.encode(buf);
        self.msgs_recv.encode(buf);
        self.bytes_recv.encode(buf);
        self.collectives.encode(buf);
    }
}

impl Decode for PhaseReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PhaseReport {
            name: String::decode(r)?,
            cpu_max_s: f64::decode(r)?,
            cpu_sum_s: f64::decode(r)?,
            slowest_rank: u64::decode(r)?,
            msgs_sent: u64::decode(r)?,
            bytes_sent: u64::decode(r)?,
            msgs_recv: u64::decode(r)?,
            bytes_recv: u64::decode(r)?,
            collectives: u64::decode(r)?,
        })
    }
}

impl Encode for TagTraffic {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tag.encode(buf);
        self.msgs_sent.encode(buf);
        self.bytes_sent.encode(buf);
        self.msgs_recv.encode(buf);
        self.bytes_recv.encode(buf);
    }
}

impl Decode for TagTraffic {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TagTraffic {
            tag: u64::decode(r)?,
            msgs_sent: u64::decode(r)?,
            bytes_sent: u64::decode(r)?,
            msgs_recv: u64::decode(r)?,
            bytes_recv: u64::decode(r)?,
        })
    }
}

impl Encode for RunReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nranks.encode(buf);
        self.phases.encode(buf);
        self.tags.encode(buf);
        self.hists.encode(buf);
        self.slow_cells.encode(buf);
        self.memory.encode(buf);
    }
}

impl Decode for RunReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RunReport {
            nranks: u64::decode(r)?,
            phases: Vec::<PhaseReport>::decode(r)?,
            tags: Vec::<TagTraffic>::decode(r)?,
            hists: Vec::<NamedHist>::decode(r)?,
            slow_cells: Vec::<SlowCell>::decode(r)?,
            memory: MemStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Runtime;

    #[test]
    fn spans_nest_and_record_inclusive_time() {
        let m = MetricsHandle::new();
        {
            let _outer = m.phase("outer");
            let mut x = 1u64;
            {
                let _inner = m.phase("inner");
                for i in 1..200_000u64 {
                    x = x.wrapping_mul(i) ^ (x >> 3);
                }
            }
            for i in 1..200_000u64 {
                x = x.wrapping_mul(i) ^ (x >> 5);
            }
            std::hint::black_box(x);
        }
        let s = m.snapshot();
        let outer = s.cpu_max("outer");
        let inner = s.cpu_max("inner");
        assert!(outer > 0.0);
        assert!(inner > 0.0);
        assert!(inner <= outer, "inclusive: inner {inner} <= outer {outer}");
    }

    #[test]
    fn external_cpu_credits_every_enclosing_span() {
        let m = MetricsHandle::new();
        {
            let _outer = m.phase("outer");
            {
                let _inner = m.phase("inner");
                m.add_external_cpu(2.0);
            }
        }
        let s = m.snapshot();
        // Inclusive semantics: the credit shows up in the inner span AND
        // bubbles into the outer one, so tiling (children <= parent) holds.
        assert!(s.cpu_max("inner") >= 2.0);
        assert!(s.cpu_max("outer") >= s.cpu_max("inner"));
    }

    #[test]
    fn external_cpu_without_open_span_lands_unphased() {
        let m = MetricsHandle::new();
        m.add_external_cpu(1.5);
        m.add_external_cpu(-3.0); // ignored: defensive against clock skew
        let s = m.snapshot();
        assert!((s.cpu_max(UNPHASED) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn counters_attribute_to_innermost_phase() {
        let m = MetricsHandle::new();
        m.on_send(7, 10);
        {
            let _a = m.phase("a");
            m.on_send(7, 20);
            {
                let _b = m.phase("b");
                m.on_recv(7, 30);
            }
        }
        let s = m.snapshot();
        let p = |name: &str| s.phase(name).unwrap();
        assert_eq!(p(UNPHASED).msgs_sent, 1);
        assert_eq!(p(UNPHASED).bytes_sent, 10);
        assert_eq!(p("a").bytes_sent, 20);
        assert_eq!(p("b").msgs_recv, 1);
        assert_eq!(p("b").bytes_recv, 30);
        assert_eq!(
            s.tags,
            vec![TagTraffic {
                tag: 7,
                msgs_sent: 2,
                bytes_sent: 30,
                msgs_recv: 1,
                bytes_recv: 30
            }]
        );
    }

    /// A one-rank report holding one phase.
    fn rank_report(rank: u64, phase: &str, c: Counters) -> RunReport {
        RunReport {
            nranks: 1,
            phases: vec![PhaseReport::of_rank(phase, rank, &c)],
            ..Default::default()
        }
    }

    #[test]
    fn merge_takes_max_and_sum() {
        let a = rank_report(
            0,
            "p",
            Counters {
                cpu_s: 2.0,
                msgs_sent: 3,
                bytes_sent: 30,
                ..Default::default()
            },
        );
        let b = rank_report(
            0,
            "p",
            Counters {
                cpu_s: 5.0,
                msgs_recv: 3,
                bytes_recv: 30,
                ..Default::default()
            },
        );
        let r = a.merge(b);
        assert_eq!(r.nranks, 2);
        let p = r.phase("p").unwrap();
        assert_eq!(p.cpu_max_s, 5.0);
        assert_eq!(p.cpu_sum_s, 7.0);
        assert_eq!(p.msgs_sent, 3);
        assert_eq!(p.msgs_recv, 3);
        assert!((p.imbalance(2) - 5.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn memory_is_sampled_max_merged_and_stripped_by_normalized() {
        let m = MetricsHandle::new();
        let s = m.snapshot().memory;
        // the allocator wrapper is live in every test binary
        assert!(s.alloc_count > 0);
        assert!(s.alloc_bytes_total > 0);
        #[cfg(target_os = "linux")]
        assert!(s.peak_rss_kb >= s.rss_kb);

        let mut a = RunReport::default();
        a.memory.peak_live_bytes = 100;
        a.memory.rss_kb = 7;
        let mut b = RunReport::default();
        b.memory.peak_live_bytes = 40;
        b.memory.rss_kb = 90;
        let r = a.merge(b);
        assert_eq!(r.memory.peak_live_bytes, 100);
        assert_eq!(r.memory.rss_kb, 90);
        // survives the codec, renders into JSON, and normalizes away
        let back = RunReport::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back.memory, r.memory);
        assert!(r.to_json().contains("\"memory\":{\"alloc_count\":0"));
        assert_eq!(r.normalized().memory, MemStats::default());
    }

    #[test]
    fn world_counts_point_to_point_conserved() {
        let reports = Runtime::run(2, |w| {
            {
                let _s = w.metrics().phase("talk");
                if w.rank() == 0 {
                    w.send(1, 1, &vec![0u8; 100]);
                } else {
                    let _: Vec<u8> = w.recv(0, 1);
                }
            }
            collect_report(w)
        });
        let r = &reports[0];
        assert_eq!(reports[1].normalized(), r.normalized());
        let talk = r.phase("talk").unwrap();
        assert_eq!(talk.msgs_sent, 1);
        assert_eq!(talk.bytes_sent, 108); // 8-byte length prefix + 100 payload
        assert_eq!(talk.msgs_recv, 1);
        assert_eq!(talk.bytes_recv, 108);
        assert!(
            r.is_conserved(),
            "violations: {:?}",
            r.conservation_violations()
        );
    }

    #[test]
    fn collectives_and_all_to_all_are_conserved() {
        for n in [1usize, 2, 3, 4, 8] {
            let reports = Runtime::run(n, |w| {
                let _s = w.metrics().phase("coll");
                w.barrier();
                let _ = w.all_gather(&(w.rank() as u64));
                let _ = w.all_reduce(1u64, |a, b| a + b);
                let _ = w.exclusive_scan_u64(w.rank() as u64);
                let out: Vec<Vec<u8>> = (0..w.nranks()).map(|t| vec![t as u8; t + 1]).collect();
                let _ = w.all_to_all(out);
                drop(_s);
                collect_report(w)
            });
            let r = &reports[0];
            assert!(r.is_conserved(), "n={n}: {:?}", r.conservation_violations());
            assert!(r.phase("coll").unwrap().collectives > 0);
            for other in &reports[1..] {
                assert_eq!(other.normalized(), r.normalized(), "n={n}");
            }
        }
    }

    #[test]
    fn prefix_and_tag_queries_select_subsets() {
        let sent = |tag, msgs_sent, bytes_sent| TagTraffic {
            tag,
            msgs_sent,
            bytes_sent,
            ..Default::default()
        };
        let r = RunReport {
            nranks: 1,
            phases: ["ghost_round:0", "ghost_round:1", "voronoi"]
                .map(|name| PhaseReport::of_rank(name, 0, &Counters::default()))
                .to_vec(),
            tags: vec![sent(10, 2, 100), sent(11, 1, 50), sent(99, 5, 999)],
            ..Default::default()
        };
        let rounds: Vec<&str> = r
            .phases_with_prefix("ghost_round:")
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(rounds, vec!["ghost_round:0", "ghost_round:1"]);
        assert_eq!(r.tag_traffic_where(|t| (10..12).contains(&t)), (3, 150));
        assert_eq!(r.tag_traffic_where(|_| false), (0, 0));
    }

    #[test]
    fn report_codec_roundtrip_and_json() {
        let reports = Runtime::run(3, |w| {
            let _s = w.metrics().phase("x");
            let _ = w.all_gather(&(w.rank() as u32));
            drop(_s);
            collect_report(w)
        });
        let r = &reports[0];
        let back = RunReport::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(&back, r);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"nranks\":3"));
        assert!(json.contains("\"conserved\":true"));
        // every quote is balanced; crude but catches broken escaping
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn hists_and_slow_cells_merge_into_reports() {
        let m = MetricsHandle::new();
        m.set_rank(2);
        m.observe("tess.candidates_per_cell", 40.0);
        m.observe("tess.candidates_per_cell", 75.0);
        m.note_slow_cells(9, &[(500, 1), (9000, 2), (100, 3)]);
        m.on_send(1, 64);
        let s = m.snapshot();
        assert_eq!(s.hist("tess.candidates_per_cell").unwrap().n(), 2);
        assert_eq!(s.hist(HIST_MSG_BYTES).unwrap().n(), 1);
        assert_eq!(
            s.slow_cells[0],
            SlowCell {
                ns: 9000,
                gid: 9,
                particle: 2,
                rank: 2
            }
        );

        let other = MetricsHandle::new();
        other.set_rank(5);
        other.observe("tess.candidates_per_cell", 33.0);
        other.note_slow_cells(4, &[(70_000, 8)]);
        let r = s.merge(other.snapshot());
        assert_eq!(r.hist("tess.candidates_per_cell").unwrap().n(), 3);
        assert_eq!(r.slow_cells[0].ns, 70_000);
        assert_eq!(r.slow_cells[0].rank, 5);
        assert_eq!(r.slow_cells.len(), 4);
        let json = r.to_json();
        assert!(json.contains("\"hists\""));
        assert!(json.contains("\"slow_cells\""));
        assert_eq!(json.matches('"').count() % 2, 0);
        // codec roundtrip with the new fields populated
        let back = RunReport::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
        // normalized strips timing-derived parts but keeps count hists
        let n = r.normalized();
        assert!(n.slow_cells.is_empty());
        assert!(n.hist("tess.candidates_per_cell").is_some());
        assert!(n.phases.iter().all(|p| p.slowest_rank == 0));
    }

    #[test]
    fn slow_cell_topk_merge_is_associative() {
        let mk = |rank: u64, base: u64| {
            let m = MetricsHandle::new();
            m.set_rank(rank);
            let cells: Vec<(u64, u64)> = (0..12).map(|i| (base + 17 * i, 100 * rank + i)).collect();
            m.note_slow_cells(rank, &cells);
            m.snapshot()
        };
        let (a, b, c) = (mk(0, 50), mk(1, 55), mk(2, 60));
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        assert_eq!(left.slow_cells, right.slow_cells);
        assert_eq!(left.slow_cells.len(), TOP_SLOW_CELLS);
        // descending by ns
        for w in left.slow_cells.windows(2) {
            assert!(w[0].ns >= w[1].ns);
        }
    }

    #[test]
    fn slowest_rank_attributes_the_max() {
        let cpu = |cpu_s| Counters {
            cpu_s,
            ..Default::default()
        };
        let a = rank_report(3, "p", cpu(9.0));
        let b = rank_report(7, "p", cpu(2.0));
        let r = a.clone().merge(b.clone());
        assert_eq!(r.phase("p").unwrap().slowest_rank, 3);
        let r = b.merge(a);
        assert_eq!(r.phase("p").unwrap().slowest_rank, 3);
    }

    #[test]
    fn json_floats_are_valid_tokens() {
        assert_eq!(json_f64(0.0), "0.0");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("\n\t\r"), "\"\\n\\t\\r\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
