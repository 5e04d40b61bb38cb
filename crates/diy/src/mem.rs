//! Process-wide memory accounting: a counting wrapper around the system
//! allocator plus Linux peak-RSS sampling.
//!
//! The counting allocator is installed as the workspace's
//! `#[global_allocator]` (see the crate root), so every binary and test
//! linking `diy` gets allocation counters for free. The counters are
//! process-global relaxed atomics — a handful of uncontended atomic ops
//! per allocation. Because the accounting is process-wide, the per-rank
//! values sampled into [`crate::metrics::MemStats`] are merged across
//! ranks with an elementwise *max*, not a sum. [`reset_peak`] re-bases the
//! high-water mark so one phase's peak can be read in isolation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
// Signed so the live gauge can never wrap; reads clamp at zero.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

/// Counting allocator: forwards to [`System`], tracking allocation count,
/// cumulative bytes, live bytes, and the live-byte high-water mark.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    ALLOC_COUNT.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOC_COUNT.fetch_add(1, Relaxed);
            let grown = new_size.saturating_sub(layout.size());
            ALLOC_BYTES.fetch_add(grown as u64, Relaxed);
            let delta = new_size as i64 - layout.size() as i64;
            let live = LIVE_BYTES.fetch_add(delta, Relaxed) + delta;
            PEAK_LIVE.fetch_max(live, Relaxed);
        }
        p
    }
}

/// Point-in-time allocator counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations (and growing reallocations) since process start.
    pub alloc_count: u64,
    /// Cumulative bytes allocated since process start.
    pub alloc_bytes_total: u64,
    /// Bytes currently live (clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start or the last
    /// [`reset_peak`].
    pub peak_live_bytes: u64,
}

/// Snapshot the process-wide allocator counters.
pub fn stats() -> AllocStats {
    AllocStats {
        alloc_count: ALLOC_COUNT.load(Relaxed),
        alloc_bytes_total: ALLOC_BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed).max(0) as u64,
        peak_live_bytes: PEAK_LIVE.load(Relaxed).max(0) as u64,
    }
}

/// Re-base the live-byte high-water mark to the current live gauge, so a
/// subsequent [`stats`] measures the peak of one phase in isolation.
pub fn reset_peak() {
    PEAK_LIVE.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// `(VmRSS, VmHWM)` in kilobytes from `/proc/self/status`, or `(0, 0)`
/// where that file is unavailable or unparseable (non-Linux hosts).
/// `VmHWM` is the process's resident-set high-water mark and is
/// monotonic for the life of the process — phase-local peaks need the
/// resettable allocator gauge instead.
pub fn proc_status_kb() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The counters are process-global and other unit tests allocate
    // concurrently, so these tests (a) serialize against each other and
    // (b) assert with margins far below their own allocation sizes.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn allocations_move_the_counters() {
        let _guard = SERIAL.lock().unwrap();
        let before = stats();
        let v: Vec<u8> = std::hint::black_box(vec![7u8; 8 << 20]);
        let during = stats();
        assert!(during.alloc_count > before.alloc_count);
        assert!(during.alloc_bytes_total >= before.alloc_bytes_total + (8 << 20));
        assert!(during.peak_live_bytes >= 8 << 20);
        assert!(during.live_bytes >= 8 << 20);
        drop(v);
        // monotonic totals never decrease
        let after = stats();
        assert!(after.alloc_bytes_total >= during.alloc_bytes_total);
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let _guard = SERIAL.lock().unwrap();
        let v: Vec<u8> = std::hint::black_box(vec![2u8; 32 << 20]);
        let spike = stats().peak_live_bytes;
        assert!(spike >= 32 << 20);
        drop(v);
        reset_peak();
        let rebased = stats().peak_live_bytes;
        assert!(
            rebased + (16 << 20) <= spike,
            "reset_peak left the mark at {rebased} (spike was {spike})"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn proc_status_reports_nonzero_rss() {
        let (rss, hwm) = proc_status_kb();
        assert!(rss > 0, "VmRSS");
        assert!(hwm >= rss, "VmHWM {hwm} < VmRSS {rss}");
    }
}
