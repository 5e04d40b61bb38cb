//! Flight-recorder tracing: a bounded per-rank event timeline beneath the
//! aggregate span metrics of [`crate::metrics`].
//!
//! Each rank records timestamped events — span begin/end, message send/recv
//! with tag and byte count, ghost-round markers, per-chunk pool tasks,
//! counter samples — into a bounded buffer ([`TraceState`]). Overflow is
//! lossy but *accounted*: `recorded + dropped == emitted` always holds, and
//! the drop policy keeps the oldest events (a prefix of the timeline) so a
//! span begin is never orphaned by its own end surviving alone.
//!
//! Timestamps are raw `CLOCK_MONOTONIC` nanoseconds ([`monotonic_ns`]);
//! the shared process-wide epoch means per-rank timelines align without any
//! clock-sync step, and the exporter normalizes to the earliest event.
//!
//! The recording mode is a process-wide switch read from `TESS_TRACE`
//! (`off` | `spans` | `full`, default `off`) and overridable at runtime via
//! [`set_trace_mode`]. When off, every instrumentation site reduces to one
//! relaxed atomic load.
//!
//! Export targets:
//! - [`chrome_trace_json`]: Chrome `chrome://tracing` / Perfetto JSON, one
//!   pid per rank, one tid per pool worker;
//! - the binary codec ([`RankTrace`] implements
//!   [`Encode`]/[`Decode`](crate::codec::Decode)) for compact archival;
//! - [`validate_chrome_trace`]: a self-contained well-formedness checker
//!   used by tests and CI (parses, balanced B/E pairs, monotonic
//!   timestamps).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::comm::World;
use crate::metrics::json_string;
use crate::reduce::reduce_merge;

/// Environment variable selecting the trace mode (`off|spans|full`).
pub const TRACE_ENV: &str = "TESS_TRACE";
/// Environment variable bounding the per-rank event buffer (default 65536).
pub const TRACE_CAP_ENV: &str = "TESS_TRACE_CAP";

const DEFAULT_CAP: usize = 1 << 16;

/// How much the flight recorder captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum TraceMode {
    /// Record nothing (the default); instrumentation costs one atomic load.
    #[default]
    Off = 0,
    /// Record span begin/end and markers only.
    Spans = 1,
    /// Everything: spans, per-message events, counters, pool tasks.
    Full = 2,
}

impl std::str::FromStr for TraceMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TraceMode::Off),
            "spans" => Ok(TraceMode::Spans),
            "full" => Ok(TraceMode::Full),
            other => Err(format!("bad trace mode {other:?} (off|spans|full)")),
        }
    }
}

impl std::fmt::Display for TraceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceMode::Off => "off",
            TraceMode::Spans => "spans",
            TraceMode::Full => "full",
        })
    }
}

/// Process-wide mode; `UNRESOLVED` until first read, then the env value or
/// whatever [`set_trace_mode`] installed.
static TRACE_MODE: AtomicU8 = AtomicU8::new(UNRESOLVED);
const UNRESOLVED: u8 = u8::MAX;

fn decode_mode(v: u8) -> TraceMode {
    match v {
        1 => TraceMode::Spans,
        2 => TraceMode::Full,
        _ => TraceMode::Off,
    }
}

/// The current trace mode (resolving `TESS_TRACE` lazily on first call).
#[inline]
pub fn trace_mode() -> TraceMode {
    let v = TRACE_MODE.load(Ordering::Relaxed);
    if v != UNRESOLVED {
        return decode_mode(v);
    }
    let m = std::env::var(TRACE_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(TraceMode::Off);
    // another thread may have raced us; either wrote a valid mode
    let _ = TRACE_MODE.compare_exchange(UNRESOLVED, m as u8, Ordering::Relaxed, Ordering::Relaxed);
    decode_mode(TRACE_MODE.load(Ordering::Relaxed))
}

/// Override the trace mode for the whole process; returns the previous mode.
pub fn set_trace_mode(m: TraceMode) -> TraceMode {
    let prev = TRACE_MODE.swap(m as u8, Ordering::Relaxed);
    if prev == UNRESOLVED {
        TraceMode::Off
    } else {
        decode_mode(prev)
    }
}

/// Shared monotonic clock: `CLOCK_MONOTONIC` in nanoseconds. One epoch per
/// process, so events from every rank thread share a timeline.
pub fn monotonic_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_MONOTONIC, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Sentinel for "event carries no name".
pub const NO_NAME: u32 = u32::MAX;

/// Thread id of the rank's main thread within its pid track.
pub const TID_MAIN: u32 = 0;

/// What an [`Event`] records. The payload fields `a`/`b` are
/// per-kind: see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Span opened (`name` = span name).
    SpanBegin = 0,
    /// Span closed (`name` = span name).
    SpanEnd = 1,
    /// Point-to-point send: `a` = tag, `b` = bytes.
    MsgSend = 2,
    /// Point-to-point receive: `a` = tag, `b` = bytes.
    MsgRecv = 3,
    /// Instant marker (`name`, `a` = payload, e.g. ghost round index).
    Mark = 4,
    /// Counter sample (`name`, `a` = value).
    Counter = 5,
    /// Pool chunk task: `t_ns` = start, `a` = duration ns, `b` = chunk
    /// index; `tid` identifies the worker.
    PoolTask = 6,
}

impl TryFrom<u8> for EventKind {
    type Error = CodecError;
    fn try_from(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => EventKind::SpanBegin,
            1 => EventKind::SpanEnd,
            2 => EventKind::MsgSend,
            3 => EventKind::MsgRecv,
            4 => EventKind::Mark,
            5 => EventKind::Counter,
            6 => EventKind::PoolTask,
            _ => return Err(CodecError::Invalid("bad trace event kind")),
        })
    }
}

/// One flight-recorder event. 29 bytes encoded; names are interned into the
/// owning trace's string table ([`NO_NAME`] when absent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Raw [`monotonic_ns`] timestamp (start time for [`EventKind::PoolTask`]).
    pub t_ns: u64,
    pub kind: EventKind,
    /// Track within the rank: [`TID_MAIN`] for the rank thread, `1 + worker`
    /// for pool tasks (worker 0 being the submitting thread helping out).
    pub tid: u32,
    /// String-table index or [`NO_NAME`].
    pub name: u32,
    pub a: u64,
    pub b: u64,
}

impl Encode for Event {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.t_ns.encode(buf);
        (self.kind as u8).encode(buf);
        self.tid.encode(buf);
        self.name.encode(buf);
        self.a.encode(buf);
        self.b.encode(buf);
    }
}

impl Decode for Event {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Event {
            t_ns: u64::decode(r)?,
            kind: EventKind::try_from(u8::decode(r)?)?,
            tid: u32::decode(r)?,
            name: u32::decode(r)?,
            a: u64::decode(r)?,
            b: u64::decode(r)?,
        })
    }
}

/// Bounded per-rank event recorder with exact overflow accounting.
#[derive(Debug)]
pub struct TraceState {
    cap: usize,
    events: Vec<Event>,
    strings: Vec<String>,
    index: HashMap<String, u32>,
    emitted: u64,
    dropped: u64,
}

impl Default for TraceState {
    fn default() -> Self {
        TraceState::new()
    }
}

impl TraceState {
    /// Buffer capacity from `TESS_TRACE_CAP` (default 65536 events).
    pub fn new() -> Self {
        let cap = std::env::var(TRACE_CAP_ENV)
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAP);
        TraceState::with_cap(cap)
    }

    pub fn with_cap(cap: usize) -> Self {
        TraceState {
            cap,
            events: Vec::new(),
            strings: Vec::new(),
            index: HashMap::new(),
            emitted: 0,
            dropped: 0,
        }
    }

    /// Intern `name`, returning its stable index. The table is unbounded
    /// but name cardinality is tiny (span/phase names).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Record one event. Once the buffer is full, new events are counted
    /// but not stored (prefix-keep policy: the retained events are always
    /// the chronological head of the timeline).
    pub fn push(&mut self, ev: Event) {
        self.emitted += 1;
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    pub fn recorded(&self) -> usize {
        self.events.len()
    }

    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copy out as a self-contained, serializable per-rank trace.
    pub fn snapshot(&self, rank: u64) -> RankTrace {
        RankTrace {
            rank,
            events: self.events.clone(),
            strings: self.strings.clone(),
            emitted: self.emitted,
            dropped: self.dropped,
        }
    }
}

/// One rank's recorded timeline, detached from the recorder: what travels
/// up the reduction tree and into exports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankTrace {
    pub rank: u64,
    pub events: Vec<Event>,
    pub strings: Vec<String>,
    /// Total events offered to the recorder (`events.len() + dropped`).
    pub emitted: u64,
    /// Events lost to buffer overflow.
    pub dropped: u64,
}

impl RankTrace {
    pub fn name(&self, idx: u32) -> &str {
        self.strings
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }
}

impl Encode for RankTrace {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rank.encode(buf);
        self.events.encode(buf);
        self.strings.encode(buf);
        self.emitted.encode(buf);
        self.dropped.encode(buf);
    }
}

impl Decode for RankTrace {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RankTrace {
            rank: u64::decode(r)?,
            events: Vec::<Event>::decode(r)?,
            strings: Vec::<String>::decode(r)?,
            emitted: u64::decode(r)?,
            dropped: u64::decode(r)?,
        })
    }
}

/// Gather every rank's trace snapshot at the tree root. Returns `Some`
/// (sorted by rank) on rank 0, `None` elsewhere. Collective: all ranks
/// must call it.
pub fn collect_traces(world: &mut World) -> Option<Vec<RankTrace>> {
    let local = world.metrics().trace_snapshot(world.rank() as u64);
    let merged = reduce_merge(world, vec![local], |mut a, mut b| {
        a.append(&mut b);
        a
    });
    merged.map(|mut v| {
        v.sort_by_key(|t| t.rank);
        v
    })
}

fn ts_us(t_ns: u64, t0: u64) -> String {
    format!("{:.3}", t_ns.saturating_sub(t0) as f64 / 1000.0)
}

/// Chrome-trace pid of a resident service's request timeline (the ranks
/// own pids `0..nranks`; this sits far above them). Its tids are request
/// ids, one track per request.
pub const SERVICE_TRACE_PID: u64 = 1000;

fn process_label(pid: u64) -> String {
    if pid == SERVICE_TRACE_PID {
        "mesh service".to_string()
    } else {
        format!("rank {pid}")
    }
}

fn thread_label(pid: u64, tid: u32) -> String {
    match tid {
        _ if pid == SERVICE_TRACE_PID => format!("request {tid}"),
        TID_MAIN => "main".to_string(),
        1 => "pool submitter".to_string(),
        n => format!("pool worker {}", n - 2),
    }
}

/// Export merged rank traces as Chrome-tracing / Perfetto JSON.
///
/// One pid per rank, tid 0 the rank's main thread, tid `1 + worker` per
/// pool worker; under [`SERVICE_TRACE_PID`] one tid per request. Span
/// begin/end become `B`/`E` duration events, messages and markers become
/// `i` instants, counters become `C` samples, pool tasks become `X`
/// complete events. Timestamps are microseconds relative to the
/// earliest event across all ranks. Spans still open at snapshot time (or
/// whose end was lost to overflow) are closed synthetically at the rank's
/// last timestamp so the stream always balances.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let t0 = traces
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.t_ns))
        .min()
        .unwrap_or(0);
    let mut out: Vec<String> = Vec::new();
    for t in traces {
        let pid = t.rank;
        out.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            json_string(&process_label(pid))
        ));
        let mut tids: Vec<u32> = t.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for &tid in &tids {
            out.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_string(&thread_label(pid, tid))
            ));
        }
        let t_last = t.events.iter().map(|e| e.t_ns).max().unwrap_or(t0);
        for &tid in &tids {
            let mut evs: Vec<&Event> = t.events.iter().filter(|e| e.tid == tid).collect();
            evs.sort_by_key(|e| e.t_ns); // stable: record order breaks ties
            let mut open: Vec<u32> = Vec::new();
            for e in evs {
                let ts = ts_us(e.t_ns, t0);
                match e.kind {
                    EventKind::SpanBegin => {
                        open.push(e.name);
                        out.push(format!(
                            "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\
                             \"ts\":{ts},\"name\":{}}}",
                            json_string(t.name(e.name))
                        ));
                    }
                    EventKind::SpanEnd => {
                        // Ends whose begin fell outside the buffer are
                        // dropped rather than emitted unbalanced (cannot
                        // happen under prefix-keep, but stay safe).
                        if open.pop().is_some() {
                            out.push(format!(
                                "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\
                                 \"ts\":{ts},\"name\":{}}}",
                                json_string(t.name(e.name))
                            ));
                        }
                    }
                    EventKind::MsgSend | EventKind::MsgRecv => {
                        let name = if e.kind == EventKind::MsgSend {
                            "send"
                        } else {
                            "recv"
                        };
                        out.push(format!(
                            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\
                             \"ts\":{ts},\"s\":\"t\",\"name\":\"{name}\",\
                             \"args\":{{\"tag\":{},\"bytes\":{}}}}}",
                            e.a, e.b
                        ));
                    }
                    EventKind::Mark => {
                        out.push(format!(
                            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\
                             \"ts\":{ts},\"s\":\"t\",\"name\":{},\
                             \"args\":{{\"value\":{}}}}}",
                            json_string(t.name(e.name)),
                            e.a
                        ));
                    }
                    EventKind::Counter => {
                        out.push(format!(
                            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\
                             \"ts\":{ts},\"name\":{},\
                             \"args\":{{\"value\":{}}}}}",
                            json_string(t.name(e.name)),
                            e.a
                        ));
                    }
                    EventKind::PoolTask => {
                        out.push(format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                             \"ts\":{ts},\"dur\":{:.3},\"name\":\"chunk\",\
                             \"args\":{{\"chunk\":{}}}}}",
                            e.a as f64 / 1000.0,
                            e.b
                        ));
                    }
                }
            }
            // close anything still open at the rank's final timestamp
            while let Some(name) = open.pop() {
                out.push(format!(
                    "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\
                     \"ts\":{},\"name\":{}}}",
                    ts_us(t_last, t0),
                    json_string(t.name(name))
                ));
            }
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n"))
}

// ---------------------------------------------------------------------------
// Chrome-trace validation: a tiny self-contained JSON reader, enough to
// check the exports we produce (and reject malformed ones) without pulling
// a JSON dependency into the workspace.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn parse(&mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.s.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.expect(b':')?;
            let v = self.value()?;
            kv.push((k, v));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.s.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.s.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => {
                    // copy the raw UTF-8 byte run for this char
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    let chunk = self
                        .s
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated utf-8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("bad utf-8"))?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|&c| c.is_ascii_digit() || b"+-.eE".contains(&c))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Validate an exported Chrome-trace JSON document: it must parse, carry a
/// `traceEvents` array, keep `B`/`E` pairs balanced and well-nested per
/// `(pid, tid)` with matching names, keep timestamps non-decreasing per
/// track, and give every `X` event a non-negative duration. Returns the
/// number of events checked.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = JsonParser::new(json).parse()?;
    let events = doc.get("traceEvents").ok_or("missing traceEvents")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".to_string());
    };
    // (pid, tid) → (open-span name stack, last ts)
    let mut tracks: HashMap<(u64, u64), (Vec<String>, f64)> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let pid = e
            .get("pid")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing pid"))? as u64;
        let tid = e.get("tid").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let ts = e
            .get("ts")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        let track = tracks.entry((pid, tid)).or_insert((Vec::new(), ts));
        if ts < track.1 {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on pid {pid} tid {tid} (last {})",
                track.1
            ));
        }
        track.1 = ts;
        let name = e.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "B" => track.0.push(name.to_string()),
            "E" => {
                let top = track.0.pop().ok_or(format!(
                    "event {i}: E without matching B on pid {pid} tid {tid}"
                ))?;
                if top != name {
                    return Err(format!(
                        "event {i}: E name {name:?} does not match open span {top:?}"
                    ));
                }
            }
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i}: X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: bad dur {dur}"));
                }
            }
            "i" | "C" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for ((pid, tid), (stack, _)) in &tracks {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced spans on pid {pid} tid {tid}: {stack:?} left open"
            ));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, kind: EventKind, name: u32) -> Event {
        Event {
            t_ns,
            kind,
            tid: TID_MAIN,
            name,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn mode_parses_and_overrides() {
        assert_eq!("off".parse::<TraceMode>().unwrap(), TraceMode::Off);
        assert_eq!("spans".parse::<TraceMode>().unwrap(), TraceMode::Spans);
        assert_eq!("full".parse::<TraceMode>().unwrap(), TraceMode::Full);
        assert!("loud".parse::<TraceMode>().is_err());
        assert!(TraceMode::Spans < TraceMode::Full);
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        assert!(a > 0);
    }

    #[test]
    fn overflow_accounting_is_exact() {
        let mut st = TraceState::with_cap(4);
        let total = 37u64;
        for i in 0..total {
            st.push(ev(i, EventKind::Mark, NO_NAME));
        }
        assert_eq!(st.recorded(), 4);
        assert_eq!(st.emitted(), total);
        assert_eq!(st.dropped(), total - 4);
        assert_eq!(st.recorded() as u64 + st.dropped(), st.emitted());
        // prefix-keep: the survivors are the oldest events
        let kept: Vec<u64> = st.snapshot(0).events.iter().map(|e| e.t_ns).collect();
        assert_eq!(kept, vec![0, 1, 2, 3]);
    }

    #[test]
    fn intern_is_stable() {
        let mut st = TraceState::with_cap(8);
        let a = st.intern("alpha");
        let b = st.intern("beta");
        assert_eq!(st.intern("alpha"), a);
        assert_ne!(a, b);
        let snap = st.snapshot(3);
        assert_eq!(snap.name(a), "alpha");
        assert_eq!(snap.name(b), "beta");
        assert_eq!(snap.name(NO_NAME), "?");
    }

    #[test]
    fn rank_trace_codec_roundtrip() {
        let mut st = TraceState::with_cap(16);
        let n = st.intern("phase");
        st.push(ev(10, EventKind::SpanBegin, n));
        st.push(Event {
            t_ns: 11,
            kind: EventKind::MsgSend,
            tid: TID_MAIN,
            name: NO_NAME,
            a: 42,
            b: 1000,
        });
        st.push(Event {
            t_ns: 15,
            kind: EventKind::PoolTask,
            tid: 2,
            name: NO_NAME,
            a: 5,
            b: 0,
        });
        st.push(ev(20, EventKind::SpanEnd, n));
        let t = st.snapshot(7);
        let back = RankTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_bytes(), t.to_bytes());
        // truncation is a clean error
        let bytes = t.to_bytes();
        for cut in 0..bytes.len() {
            assert!(RankTrace::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn chrome_export_validates_and_balances() {
        let mut st = TraceState::with_cap(64);
        let outer = st.intern("outer");
        let inner = st.intern("inner");
        st.push(ev(100, EventKind::SpanBegin, outer));
        st.push(ev(200, EventKind::SpanBegin, inner));
        st.push(Event {
            t_ns: 250,
            kind: EventKind::MsgRecv,
            tid: TID_MAIN,
            name: NO_NAME,
            a: 9,
            b: 128,
        });
        st.push(ev(300, EventKind::SpanEnd, inner));
        // "outer" left open → exporter must close it synthetically
        let mark = st.intern("ghost_round");
        st.push(Event {
            t_ns: 350,
            kind: EventKind::Mark,
            tid: TID_MAIN,
            name: mark,
            a: 2,
            b: 0,
        });
        st.push(Event {
            t_ns: 120,
            kind: EventKind::PoolTask,
            tid: 3,
            name: NO_NAME,
            a: 77,
            b: 4,
        });
        let json = chrome_trace_json(&[st.snapshot(0)]);
        let n = validate_chrome_trace(&json).expect("export must validate");
        assert!(n >= 7, "expected events + metadata, got {n}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        // unbalanced: B without E
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("unbalanced"));
        // E name mismatch
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1,\"name\":\"x\"},\
            {\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2,\"name\":\"y\"}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // backwards timestamps
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":5,\"name\":\"x\"},\
            {\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("backwards"));
    }

    #[test]
    fn validator_accepts_escapes_and_unicode() {
        let ok = "{\"traceEvents\":[\
            {\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":0.5,\"s\":\"t\",\
             \"name\":\"caf\\u00e9 \\\"quoted\\\" ▁▂\",\"args\":{}}]}";
        assert_eq!(validate_chrome_trace(ok).unwrap(), 1);
    }
}
