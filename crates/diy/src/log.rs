//! A tiny leveled logger: rank-prefixed, monotonically timestamped lines
//! on stderr.
//!
//! The level is process-wide, read once from `TESS_LOG`
//! (`error` | `info` | `debug`, default `info`) and overridable at runtime
//! with [`set_level`]. Rank threads register themselves via
//! [`set_thread_rank`] (done by `Runtime::run`), so messages printed from
//! inside a simulated rank carry a `r<N>` prefix.
//!
//! Every line carries a monotonic timestamp ([`crate::trace::monotonic_ns`],
//! anchored to the first log call so runs start near zero). The output
//! format is process-wide, read once from `TESS_LOG_FORMAT`
//! (`text` | `json`, default `text`) and overridable with [`set_format`]:
//! `json` emits one structured object per line
//! (`{"ts_s":…,"level":…,"rank":…,"msg":…}`, escaped via
//! [`crate::metrics::json_string`]) for machine ingestion.
//!
//! Use the [`log_error!`](crate::log_error), [`log_info!`](crate::log_info)
//! and [`log_debug!`](crate::log_debug) macros; they skip formatting
//! entirely when the level is disabled.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Environment variable selecting the log level (`error|info|debug`).
pub const LOG_ENV: &str = "TESS_LOG";

/// Environment variable selecting the output format (`text|json`).
pub const LOG_FORMAT_ENV: &str = "TESS_LOG_FORMAT";

/// Severity, ordered: `Error < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 0,
    Info = 1,
    Debug = 2,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "error" => Ok(Level::Error),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("bad log level {other:?} (error|info|debug)")),
        }
    }
}

const UNRESOLVED: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn decode(v: u8) -> Level {
    match v {
        0 => Level::Error,
        2 => Level::Debug,
        _ => Level::Info,
    }
}

/// The active log level (resolving `TESS_LOG` lazily on first call).
pub fn level() -> Level {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNRESOLVED {
        return decode(v);
    }
    let l = std::env::var(LOG_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(Level::Info);
    let _ = LEVEL.compare_exchange(UNRESOLVED, l as u8, Ordering::Relaxed, Ordering::Relaxed);
    decode(LEVEL.load(Ordering::Relaxed))
}

/// Override the level for the whole process; returns the previous level.
pub fn set_level(l: Level) -> Level {
    let prev = LEVEL.swap(l as u8, Ordering::Relaxed);
    if prev == UNRESOLVED {
        Level::Info
    } else {
        decode(prev)
    }
}

/// Would a message at `l` be printed?
#[inline]
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Output format: human text lines or one JSON object per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Format {
    Text = 0,
    Json = 1,
}

static FORMAT: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn decode_format(v: u8) -> Format {
    if v == 1 {
        Format::Json
    } else {
        Format::Text
    }
}

/// The active output format (resolving `TESS_LOG_FORMAT` lazily).
pub fn format() -> Format {
    let v = FORMAT.load(Ordering::Relaxed);
    if v != UNRESOLVED {
        return decode_format(v);
    }
    let f = match std::env::var(LOG_FORMAT_ENV).ok().as_deref() {
        Some("json") => Format::Json,
        _ => Format::Text,
    };
    let _ = FORMAT.compare_exchange(UNRESOLVED, f as u8, Ordering::Relaxed, Ordering::Relaxed);
    decode_format(FORMAT.load(Ordering::Relaxed))
}

/// Override the output format process-wide; returns the previous format.
pub fn set_format(f: Format) -> Format {
    let prev = FORMAT.swap(f as u8, Ordering::Relaxed);
    if prev == UNRESOLVED {
        Format::Text
    } else {
        decode_format(prev)
    }
}

/// Monotonic anchor: the first log call defines t=0 so timestamps read as
/// seconds into the run.
static T0_NS: AtomicU64 = AtomicU64::new(0);

fn elapsed_s() -> f64 {
    let now = crate::trace::monotonic_ns();
    let mut t0 = T0_NS.load(Ordering::Relaxed);
    if t0 == 0 {
        let _ = T0_NS.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        t0 = T0_NS.load(Ordering::Relaxed);
    }
    now.saturating_sub(t0) as f64 / 1e9
}

thread_local! {
    static THREAD_RANK: Cell<i64> = const { Cell::new(-1) };
}

/// Tag this thread's log lines with a rank prefix (`None` clears it).
pub fn set_thread_rank(rank: Option<usize>) {
    THREAD_RANK.with(|r| r.set(rank.map(|v| v as i64).unwrap_or(-1)));
}

/// Render one log line in `fmt` (no trailing newline). `rank < 0` means
/// "no rank": text omits the `r<N>` tag, JSON emits `"rank":null`.
pub fn format_line(fmt: Format, l: Level, rank: i64, ts_s: f64, msg: &str) -> String {
    match fmt {
        Format::Text => {
            if rank >= 0 {
                format!("[{ts_s:.6} {} r{rank}] {msg}", l.tag())
            } else {
                format!("[{ts_s:.6} {}] {msg}", l.tag())
            }
        }
        Format::Json => {
            let rank_json = if rank >= 0 {
                rank.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{{\"ts_s\":{ts_s:.6},\"level\":\"{}\",\"rank\":{rank_json},\"msg\":{}}}",
                l.tag(),
                crate::metrics::json_string(msg)
            )
        }
    }
}

/// Print one formatted line to stderr (used by the macros; call those).
pub fn write(l: Level, args: std::fmt::Arguments<'_>) {
    let rank = THREAD_RANK.with(Cell::get);
    let line = format_line(format(), l, rank, elapsed_s(), &args.to_string());
    eprintln!("{line}");
}

#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::write($crate::log::Level::Error, format_args!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::write($crate::log::Level::Info, format_args!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::write($crate::log::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!("debug".parse::<Level>().unwrap(), Level::Debug);
        assert!("verbose".parse::<Level>().is_err());
    }

    #[test]
    fn set_level_gates_enabled() {
        let prev = set_level(Level::Error);
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(prev);
    }

    #[test]
    fn rank_prefix_round_trips() {
        set_thread_rank(Some(3));
        THREAD_RANK.with(|r| assert_eq!(r.get(), 3));
        set_thread_rank(None);
        THREAD_RANK.with(|r| assert_eq!(r.get(), -1));
    }

    #[test]
    fn set_format_round_trips() {
        let prev = set_format(Format::Json);
        assert_eq!(format(), Format::Json);
        assert_eq!(set_format(Format::Text), Format::Json);
        assert_eq!(format(), Format::Text);
        set_format(prev);
    }

    #[test]
    fn text_line_has_timestamp_and_rank() {
        let line = format_line(Format::Text, Level::Info, 3, 1.25, "hello");
        assert_eq!(line, "[1.250000 info r3] hello");
        let anon = format_line(Format::Text, Level::Error, -1, 0.0, "boom");
        assert_eq!(anon, "[0.000000 error] boom");
    }

    #[test]
    fn json_line_escapes_quotes_and_control_chars() {
        let msg = "say \"hi\"\\path\nnext\tcol\u{1}end";
        let line = format_line(Format::Json, Level::Debug, 2, 0.5, msg);
        assert_eq!(
            line,
            "{\"ts_s\":0.500000,\"level\":\"debug\",\"rank\":2,\
             \"msg\":\"say \\\"hi\\\"\\\\path\\nnext\\tcol\\u0001end\"}"
        );
        // rankless lines carry an explicit null
        let anon = format_line(Format::Json, Level::Info, -1, 2.0, "x");
        assert!(anon.contains("\"rank\":null"));
        // the line is one object with balanced quotes (cheap sanity check:
        // an even number of unescaped quotes)
        let unescaped = line.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }

    #[test]
    fn elapsed_is_monotonic() {
        let a = elapsed_s();
        let b = elapsed_s();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}
